// Statement IR: the abstract syntax tree the scheduler lowers schedule
// strategies into (Sec. 4.4). There is one node type per statement kind --
// Seq, For, If, SpmAlloc, SpmZero, Dma (get and put), DmaWait and Gemm --
// each allocated at its own size and carrying only its own fields. Code
// holds a node as a StmtPtr, switches on its kind and reaches its fields
// through Stmt::as<T>(), which throws CheckError when the node is of
// another kind, so a field and the kind it belongs to cannot disagree. A
// Dma node's kind is also its direction: a DmaGet moves main memory into
// the SPM tile grid and a DmaPut moves the grid back.
// Schedule transformations and the IR optimizer work by mutating this
// tree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace swatop::ir {

/// Size of the reply-word table every lowered program may address. Shared
/// by the interpreter (its completion-time table), the double-buffering
/// pass (which remaps reply slots into the prefetch range) and the C
/// emitter (the generated `swReplyWord reply[...]` declaration) -- the
/// three must agree or a schedule that is legal for one layer silently
/// corrupts another.
inline constexpr std::int64_t kMaxReplySlots = 256;

/// First reply slot owned by the double-buffering pass. Slots below this
/// are the DMA-inference operand streams (one per tensor operand); the
/// pass maps stream slot `s` with parity `p` to `kPrefetchReplyBase +
/// 2*s + p`.
inline constexpr std::int64_t kPrefetchReplyBase = 100;

enum class StmtKind {
  Seq,
  For,
  If,
  SpmAlloc,
  SpmZero,
  DmaGet,
  DmaPut,
  DmaWait,
  Gemm,
};

constexpr const char* kind_name(StmtKind k) {
  switch (k) {
    case StmtKind::Seq: return "Seq";
    case StmtKind::For: return "For";
    case StmtKind::If: return "If";
    case StmtKind::SpmAlloc: return "SpmAlloc";
    case StmtKind::SpmZero: return "SpmZero";
    case StmtKind::DmaGet: return "DmaGet";
    case StmtKind::DmaPut: return "DmaPut";
    case StmtKind::DmaWait: return "DmaWait";
    case StmtKind::Gemm: return "Gemm";
  }
  return "?";
}

struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

/// A 2D matrix view into a named main-memory tensor: element (i, j) lives at
/// float offset base + i*stride_r + j*stride_c; the view spans rows x cols
/// valid elements. Views are attached to GEMM operands by lowering and moved
/// onto DMA nodes by DMA inference.
struct ViewAttrs {
  std::string tensor;
  Expr base;
  std::int64_t stride_r = 1;
  std::int64_t stride_c = 0;
  Expr rows;  ///< valid rows (may be a boundary min())
  Expr cols;  ///< valid cols
};

/// Elementwise epilogue fused into the GEMM's C store path: while the
/// output tile streams from SPM to memory, apply
///   bias   : += bias_tensor[channel0 + local output-channel index]
///   res    : += res view element at the tile's (row, col)
///   relu   : max(x, 0) last
/// Lowering attaches this to the GemmAttrs; DMA inference moves it onto the
/// final C DmaPut (rejecting schedules that put partial sums). The order
/// bias -> residual -> relu matches the unfused graph passes bitwise.
struct EpilogueAttrs {
  bool bias = false;
  bool residual = false;
  bool relu = false;
  /// True when the C tile's SPM rows run over output channels (kernel
  /// variant vectorizes M); false when channels run over columns. Decides
  /// which tile index selects the bias element.
  bool channels_on_rows = false;
  /// First output channel covered by this GEMM's C tile (absolute index
  /// into the bias tensor).
  Expr channel0;
  /// Residual operand view; same rows/cols as the C view, unpadded output
  /// strides. Tensor name is looked up in the bound tensors ("res").
  ViewAttrs res;

  bool any() const { return bias || residual || relu; }
};

/// GEMM statement: C[c_buf] += alpha * op(A[a_buf]) x op(B[b_buf]) on SPM
/// tiles, dims padded to primitive validity; `a/b/c` keep the memory views
/// until DMA inference consumes them and fills the buffer bindings.
struct GemmAttrs {
  // Primitive dims. Constants under the lightweight-padding boundary
  // strategy; min() expressions under parameter switching.
  Expr M, N, K;
  float alpha = 1.0f;
  int variant = 0;  ///< isa::KernelVariant index

  // Memory views (pre-inference).
  ViewAttrs a, b, c;

  // SPM bindings (post-inference). Offsets include double-buffer parity.
  std::string a_buf, b_buf, c_buf;
  Expr a_off, b_off, c_off;

  /// Fused elementwise tail; applied by the C store, not the GEMM itself.
  EpilogueAttrs epi;
};

/// DMA node (the paper's DMA_CPE after inference): move the view's valid
/// rows x cols region between main memory and the SPM tile grid, in the
/// direction the node's kind gives. The SPM tile is (rows_p x cols_p) split
/// 8x8 across CPEs, each local tile stored column-major with leading
/// dimension rows_p/8.
struct DmaAttrs {
  ViewAttrs view;
  /// Tile grid dims (divisible by the mesh). Constants under lightweight
  /// padding; the same min() expressions as the gemm dims under parameter
  /// switching, where the grid shrinks with the boundary tile.
  Expr rows_p;
  Expr cols_p;
  std::string spm_buf;
  Expr spm_off;  ///< offset within the buffer (double-buffer parity)
  Expr reply;    ///< reply-word slot id
  /// True when view-row blocks map to mesh row ids (the natural
  /// orientation); false when the view was transposed to feed a row-major
  /// kernel operand, in which case view-row blocks map to column ids.
  bool rows_to_rid = true;
  /// Fused elementwise tail (DmaPut of a GEMM output only); moved here
  /// from GemmAttrs by DMA inference.
  EpilogueAttrs epi;
  /// A get that fills one tile of a cached operand's SPM slab (DMA
  /// inference's fill nest): synchronous, and never double-buffered.
  bool cache_fill = false;
};

namespace detail {
[[noreturn]] void wrong_kind(StmtKind kind, const char* wanted);
}  // namespace detail

/// The head every statement node starts with: its kind, fixed when the
/// node is made. Only the node types below derive from it.
struct Stmt {
  const StmtKind kind;

  /// True when this node is a T.
  template <class T>
  bool is() const {
    return T::holds(kind);
  }
  /// This node as a T; throws CheckError when it is of another kind.
  template <class T>
  T& as() {
    if (!T::holds(kind)) detail::wrong_kind(kind, T::kName);
    return static_cast<T&>(*this);
  }
  template <class T>
  const T& as() const {
    if (!T::holds(kind)) detail::wrong_kind(kind, T::kName);
    return static_cast<const T&>(*this);
  }

 protected:
  explicit Stmt(StmtKind k) : kind(k) {}
  Stmt(const Stmt&) = default;
  /// Not virtual: a node is made by make_shared of its own type, whose
  /// control block destroys it as that type.
  ~Stmt() = default;
};

/// A node type of the single kind K.
template <StmtKind K>
struct KindStmt : Stmt {
  static constexpr const char* kName = kind_name(K);
  static constexpr bool holds(StmtKind k) { return k == K; }

 protected:
  KindStmt() : Stmt(K) {}
};

/// Statements run in order.
struct Seq final : KindStmt<StmtKind::Seq> {
  std::vector<StmtPtr> body;
};

/// for (var = 0; var < extent; ++var) body
struct For final : KindStmt<StmtKind::For> {
  VarId var;
  Expr extent;
  StmtPtr body;
  bool prefetched = false;  ///< marker: double-buffering applied here
  bool reduction = false;   ///< iterations accumulate into the gemm output
};

/// if (cond != 0) then_s else else_s (else_s may be null).
struct If final : KindStmt<StmtKind::If> {
  Expr cond;
  StmtPtr then_s;
  StmtPtr else_s;
};

struct SpmAlloc final : KindStmt<StmtKind::SpmAlloc> {
  std::string buf_name;
  std::int64_t buf_floats = 0;   ///< per-CPE floats (before doubling)
  bool double_buffered = false;  ///< two halves
};

/// Zero `floats` floats of `buf_name` from offset `off`, on every CPE.
struct SpmZero final : KindStmt<StmtKind::SpmZero> {
  std::string buf_name;
  Expr off;
  Expr floats;
};

/// A DMA get (kind DmaGet) or put (kind DmaPut).
struct Dma final : Stmt {
  static constexpr const char* kName = "Dma";
  static constexpr bool holds(StmtKind k) {
    return k == StmtKind::DmaGet || k == StmtKind::DmaPut;
  }
  explicit Dma(StmtKind get_or_put) : Stmt(get_or_put) {
    if (!holds(get_or_put)) detail::wrong_kind(get_or_put, kName);
  }

  DmaAttrs attrs;
};

/// Wait until the DMA on reply slot `reply` has completed.
struct DmaWait final : KindStmt<StmtKind::DmaWait> {
  Expr reply;
};

struct Gemm final : KindStmt<StmtKind::Gemm> {
  GemmAttrs attrs;
};

// -- constructors ------------------------------------------------------------
StmtPtr make_seq(std::vector<StmtPtr> body = {});
StmtPtr make_for(VarId var, Expr extent, StmtPtr body,
                 bool reduction = false);
StmtPtr make_if(Expr cond, StmtPtr then_s, StmtPtr else_s = nullptr);
StmtPtr make_spm_alloc(std::string name, std::int64_t floats,
                       bool double_buffered = false);
StmtPtr make_spm_zero(std::string buf, Expr off, Expr floats);
StmtPtr make_dma(StmtKind get_or_put, DmaAttrs attrs);
StmtPtr make_dma_wait(Expr reply);
StmtPtr make_gemm(GemmAttrs attrs);

/// Deep structural copy (expressions are shared; they are immutable).
StmtPtr deep_copy(const StmtPtr& s);

/// Append a child to a Seq.
void seq_push(StmtPtr& seq, StmtPtr child);

}  // namespace swatop::ir
