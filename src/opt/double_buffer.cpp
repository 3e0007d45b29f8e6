#include "opt/double_buffer.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

namespace {

using ir::kPrefetchReplyBase;

/// A DMA get directly inside the target loop body, with its trailing wait
/// and optional preceding zero-fill guard.
struct GetGroup {
  std::size_t zero_idx = SIZE_MAX;  ///< If guard index, SIZE_MAX if none
  std::size_t get_idx = 0;
  std::size_t wait_idx = 0;
};

/// The zero-fill an If guards: its then-branch, alone or as the only
/// statement of a Seq; null when it guards something else.
ir::SpmZero* guarded_zero(const ir::If& guard) {
  ir::StmtPtr t = guard.then_s;
  if (t != nullptr && t->is<ir::Seq>() && t->as<ir::Seq>().body.size() == 1)
    t = t->as<ir::Seq>().body[0];
  return t != nullptr && t->is<ir::SpmZero>() ? &t->as<ir::SpmZero>()
                                              : nullptr;
}

/// True if `s` is an If whose then-branch zero-fills `buf`.
bool is_zero_guard_for(const ir::StmtPtr& s, const std::string& buf) {
  if (s == nullptr || !s->is<ir::If>()) return false;
  const ir::SpmZero* z = guarded_zero(s->as<ir::If>());
  return z != nullptr && z->buf_name == buf;
}

/// Gets the pass leaves alone: a cached operand's fills (DMA inference
/// stages them once, ahead of the loops that reuse the tiles), and gets a
/// previous double-buffering round already rewrote (their reply slot was
/// remapped into the prefetch range).
bool leave_alone(const ir::DmaAttrs& get) {
  return get.cache_fill || !ir::is_const(get.reply) ||
         ir::as_cst(get.reply) >= kPrefetchReplyBase;
}

/// A get the pass transforms.
bool moves(const ir::StmtPtr& s) {
  return s->kind == ir::StmtKind::DmaGet &&
         !leave_alone(s->as<ir::Dma>().attrs);
}

std::vector<GetGroup> collect_gets(const ir::Seq& body) {
  const std::vector<ir::StmtPtr>& b = body.body;
  std::vector<GetGroup> out;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!moves(b[i])) continue;
    GetGroup g;
    g.get_idx = i;
    SWATOP_CHECK(i + 1 < b.size() && b[i + 1]->kind == ir::StmtKind::DmaWait)
        << "DMA get without trailing wait";
    g.wait_idx = i + 1;
    if (i > 0 &&
        is_zero_guard_for(b[i - 1], b[i]->as<ir::Dma>().attrs.spm_buf))
      g.zero_idx = i - 1;
    out.push_back(g);
  }
  return out;
}

/// Substitute `v -> repl` through all expressions of a statement subtree.
void subst_stmt(const ir::StmtPtr& s, ir::VarId v, const ir::Expr& repl) {
  ir::visit(s, [&](const ir::StmtPtr& n) {
    ir::for_each_expr(*n, [&](ir::Expr& e) { e = ir::substitute(e, v, repl); });
  });
}

/// A loop to double-buffer: the Seq holding it and its index there.
struct Target {
  ir::Seq* parent;
  std::size_t idx;
};

/// True if the loop's body directly issues a get the pass transforms.
bool has_direct_get(const ir::For& loop) {
  if (!loop.body->is<ir::Seq>()) return false;
  for (const ir::StmtPtr& c : loop.body->as<ir::Seq>().body)
    if (moves(c)) return true;
  return false;
}

/// Every For held by a Seq whose body directly issues a get, in pre-order
/// (so an inner loop comes after the loops enclosing it).
void collect_targets(const ir::StmtPtr& n, std::vector<Target>& out) {
  if (n == nullptr) return;
  switch (n->kind) {
    case ir::StmtKind::Seq: {
      ir::Seq& seq = n->as<ir::Seq>();
      for (std::size_t i = 0; i < seq.body.size(); ++i) {
        const ir::StmtPtr& c = seq.body[i];
        if (c->is<ir::For>() && has_direct_get(c->as<ir::For>()))
          out.push_back({&seq, i});
        collect_targets(c, out);
      }
      return;
    }
    case ir::StmtKind::For:
      collect_targets(n->as<ir::For>().body, out);
      return;
    case ir::StmtKind::If:
      collect_targets(n->as<ir::If>().then_s, out);
      collect_targets(n->as<ir::If>().else_s, out);
      return;
    default:
      return;
  }
}

/// The allocation of `buf` in the root allocation list DMA inference
/// writes.
ir::SpmAlloc* root_alloc(const ir::StmtPtr& root, const std::string& buf) {
  for (const ir::StmtPtr& n : root->as<ir::Seq>().body) {
    if (!n->is<ir::SpmAlloc>()) continue;
    ir::SpmAlloc& a = n->as<ir::SpmAlloc>();
    if (a.buf_name == buf) return &a;
  }
  return nullptr;
}

/// Double-buffer one target loop: prefetch its gets one iteration ahead
/// into the other half of their (now doubled) buffers.
void apply_one(const ir::StmtPtr& root, const Target& t) {
  ir::Seq* parent = t.parent;
  const std::size_t loop_idx = t.idx;
  ir::For& loop = parent->body[loop_idx]->as<ir::For>();
  const ir::VarId v = loop.var;
  const ir::Expr extent = loop.extent;
  ir::Seq& body = loop.body->as<ir::Seq>();

  const std::vector<GetGroup> groups = collect_gets(body);
  SWATOP_CHECK(!groups.empty());

  const ir::Expr parity_cur = ir::mod(ir::var(v), ir::cst(2));
  const ir::Expr vnext = ir::add(ir::var(v), ir::cst(1));
  const ir::Expr parity_next = ir::mod(vnext, ir::cst(2));

  std::vector<ir::StmtPtr> prologue;      // before the loop
  std::vector<ir::StmtPtr> new_head;      // start of the new body
  std::vector<bool> remove(body.body.size(), false);
  std::vector<std::string> db_bufs;

  for (const GetGroup& g : groups) {
    const ir::StmtPtr get = body.body[g.get_idx];
    const ir::DmaAttrs& got = get->as<ir::Dma>().attrs;
    const std::string buf = got.spm_buf;
    ir::SpmAlloc* alloc = root_alloc(root, buf);
    SWATOP_CHECK(alloc != nullptr) << "no SPM alloc for '" << buf << "'";
    alloc->double_buffered = true;
    const std::int64_t half = align_up(alloc->buf_floats, 8);
    const std::int64_t slot = ir::as_cst(got.reply);
    SWATOP_CHECK(kPrefetchReplyBase + 2 * slot + 1 < ir::kMaxReplySlots)
        << "prefetch reply slot for stream " << slot
        << " exceeds the reply table (" << ir::kMaxReplySlots << " slots)";
    const ir::Expr reply_cur =
        ir::add(ir::cst(kPrefetchReplyBase + 2 * slot), parity_cur);
    const ir::Expr reply_next =
        ir::add(ir::cst(kPrefetchReplyBase + 2 * slot), parity_next);
    db_bufs.push_back(buf);

    // Prologue: the iteration-0 transfer into half 0.
    {
      ir::StmtPtr pg = ir::deep_copy(get);
      ir::DmaAttrs& d = pg->as<ir::Dma>().attrs;
      d.spm_off = ir::cst(0);
      d.reply = ir::cst(kPrefetchReplyBase + 2 * slot);
      subst_stmt(pg, v, ir::cst(0));
      if (g.zero_idx != SIZE_MAX) {
        ir::StmtPtr z = ir::deep_copy(body.body[g.zero_idx]);
        subst_stmt(z, v, ir::cst(0));
        prologue.push_back(std::move(z));
      }
      prologue.push_back(std::move(pg));
    }

    // In-loop: prefetch of iteration v+1 into the other half. Substitute
    // the loop variable through the copied addresses *before* installing
    // the parity expressions (which reference the un-substituted v).
    {
      ir::StmtPtr pf = ir::deep_copy(get);
      subst_stmt(pf, v, vnext);
      ir::DmaAttrs& d = pf->as<ir::Dma>().attrs;
      d.spm_off = ir::mul(parity_next, ir::cst(half));
      d.reply = reply_next;
      std::vector<ir::StmtPtr> guarded;
      if (g.zero_idx != SIZE_MAX) {
        ir::StmtPtr z = ir::deep_copy(body.body[g.zero_idx]);
        subst_stmt(z, v, vnext);
        // Zero the half being fetched into.
        guarded_zero(z->as<ir::If>())->off =
            ir::mul(parity_next, ir::cst(half));
        guarded.push_back(std::move(z));
      }
      guarded.push_back(std::move(pf));
      new_head.push_back(
          ir::make_if(ir::lt(vnext, extent), ir::make_seq(std::move(guarded)),
                      ir::make_seq({})));
    }

    // The wait for this iteration's data replaces the original wait.
    new_head.push_back(ir::make_dma_wait(reply_cur));

    if (g.zero_idx != SIZE_MAX) remove[g.zero_idx] = true;
    remove[g.get_idx] = true;
    remove[g.wait_idx] = true;
  }

  // Consumers of double-buffered data select the current half.
  ir::visit(loop.body, [&](const ir::StmtPtr& n) {
    if (!n->is<ir::Gemm>()) return;
    auto fix = [&](const std::string& buf, ir::Expr& off) {
      for (const std::string& b : db_bufs) {
        if (b == buf) {
          const ir::SpmAlloc* alloc = root_alloc(root, buf);
          off = ir::mul(parity_cur, ir::cst(align_up(alloc->buf_floats, 8)));
        }
      }
    };
    ir::GemmAttrs& gm = n->as<ir::Gemm>().attrs;
    fix(gm.a_buf, gm.a_off);
    fix(gm.b_buf, gm.b_off);
    fix(gm.c_buf, gm.c_off);
  });

  // Rebuild the body: prefetches + waits first, then the untouched rest.
  std::vector<ir::StmtPtr> rebuilt = std::move(new_head);
  for (std::size_t i = 0; i < body.body.size(); ++i)
    if (!remove[i]) rebuilt.push_back(body.body[i]);
  body.body = std::move(rebuilt);
  loop.prefetched = true;

  // Insert the prologue right before the loop.
  parent->body.insert(parent->body.begin() +
                          static_cast<std::ptrdiff_t>(loop_idx),
                      prologue.begin(), prologue.end());
}

/// Where the write-back of a two-half C buffer happens: the Seq holding
/// its put and the put's index there, and the loops enclosing the put,
/// outermost first.
struct PutSite {
  ir::Seq* seq = nullptr;
  std::size_t idx = 0;
  std::vector<Target> loops;
};

/// A put not rewritten yet (on a stream's constant reply slot) from a
/// buffer DMA inference allocated with two halves.
bool doubled_put(const ir::StmtPtr& root, const ir::StmtPtr& s) {
  if (s->kind != ir::StmtKind::DmaPut) return false;
  const ir::DmaAttrs& d = s->as<ir::Dma>().attrs;
  if (!ir::is_const(d.reply) || ir::as_cst(d.reply) >= kPrefetchReplyBase)
    return false;
  const ir::SpmAlloc* alloc = root_alloc(root, d.spm_buf);
  return alloc != nullptr && alloc->double_buffered;
}

/// Find the put doubled_put() selects under `n`, following Seqs and Fors.
bool find_put(const ir::StmtPtr& root, const ir::StmtPtr& n,
              std::vector<Target>& loops, PutSite& out) {
  if (!n->is<ir::Seq>()) return false;
  ir::Seq& seq = n->as<ir::Seq>();
  for (std::size_t i = 0; i < seq.body.size(); ++i) {
    const ir::StmtPtr& c = seq.body[i];
    if (doubled_put(root, c)) {
      out = {&seq, i, loops};
      return true;
    }
    if (!c->is<ir::For>()) continue;
    loops.push_back({&seq, i});
    if (find_put(root, c->as<ir::For>().body, loops, out)) return true;
    loops.pop_back();
  }
  return false;
}

/// Double-buffer the C write-back: tile t (numbered across every loop
/// around the put) zeroes, accumulates into and puts half t % 2 on that
/// half's reply slot and goes on without waiting; it waits for tile t-2's
/// put, the last one from the same half, just before zeroing it, and the
/// last two puts are waited for once, after the outermost loop.
bool double_buffer_write_back(const ir::StmtPtr& root) {
  std::vector<Target> enclosing;
  PutSite site;
  if (!find_put(root, root, enclosing, site)) return false;
  SWATOP_CHECK(!site.loops.empty()) << "double-buffered C put outside loops";
  std::vector<ir::StmtPtr>& body = site.seq->body;
  ir::DmaAttrs& put = body[site.idx]->as<ir::Dma>().attrs;
  const std::string buf = put.spm_buf;
  const std::int64_t half = align_up(root_alloc(root, buf)->buf_floats, 8);
  const std::int64_t slot = ir::as_cst(put.reply);
  SWATOP_CHECK(kPrefetchReplyBase + 2 * slot + 1 < ir::kMaxReplySlots)
      << "write-back reply slot for stream " << slot
      << " exceeds the reply table (" << ir::kMaxReplySlots << " slots)";

  // t = sum of v_k * stride_k, stride_k the product of the inner extents;
  // its parity only sums the variables of odd stride.
  ir::Expr tile = ir::cst(0), odd = ir::cst(0);
  std::int64_t stride = 1;
  for (auto it = site.loops.rbegin(); it != site.loops.rend(); ++it) {
    const ir::For& f = it->parent->body[it->idx]->as<ir::For>();
    tile = ir::add(tile, ir::mul(ir::var(f.var), ir::cst(stride)));
    if (stride % 2 != 0) odd = ir::add(odd, ir::var(f.var));
    stride *= ir::as_cst(f.extent);
  }
  const ir::Expr parity = ir::mod(odd, ir::cst(2));
  const ir::Expr half_off = ir::mul(parity, ir::cst(half));
  const ir::Expr reply = ir::add(ir::cst(kPrefetchReplyBase + 2 * slot), parity);

  // The put: from this tile's half, no wait after it.
  SWATOP_CHECK(site.idx + 1 < body.size() &&
               body[site.idx + 1]->kind == ir::StmtKind::DmaWait)
      << "C put without trailing wait";
  put.spm_off = half_off;
  put.reply = reply;
  body.erase(body.begin() + static_cast<std::ptrdiff_t>(site.idx) + 1);

  // The accumulator's zero-fill, after waiting for tile t-2's put.
  std::size_t zero = 0;
  while (zero < site.idx && !(body[zero]->is<ir::SpmZero>() &&
                              body[zero]->as<ir::SpmZero>().buf_name == buf))
    ++zero;
  SWATOP_CHECK(zero < site.idx) << "no zero-fill of '" << buf << "'";
  body[zero]->as<ir::SpmZero>().off = half_off;
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(zero),
              ir::make_if(ir::ge(tile, ir::cst(2)),
                          ir::make_seq({ir::make_dma_wait(reply)})));

  // The gemm accumulates into this tile's half.
  for (const ir::StmtPtr& s : body) {
    ir::visit(s, [&](const ir::StmtPtr& n) {
      if (n->is<ir::Gemm>() && n->as<ir::Gemm>().attrs.c_buf == buf)
        n->as<ir::Gemm>().attrs.c_off = half_off;
    });
  }

  // Drain the last two puts after the outermost loop.
  const Target& outer = site.loops.front();
  outer.parent->body.insert(
      outer.parent->body.begin() + static_cast<std::ptrdiff_t>(outer.idx) + 1,
      {ir::make_dma_wait(ir::cst(kPrefetchReplyBase + 2 * slot)),
       ir::make_dma_wait(ir::cst(kPrefetchReplyBase + 2 * slot + 1))});
  const Target& inner = site.loops.back();
  inner.parent->body[inner.idx]->as<ir::For>().prefetched = true;
  return true;
}

}  // namespace

bool apply_double_buffer(ir::StmtPtr& root) {
  // Transform every loop that directly issues DMA gets, innermost first:
  // gets hoisted to outer levels get their own double buffers, so transfer
  // latency is hidden at every level of the nest. Rewriting a loop adds
  // only prefetched gets, so no loop becomes a target later, and a
  // prologue lands before its own loop, after every target still pending
  // in the same Seq: the indices collected up front stay valid. The C
  // write-back is rewritten last, on the finished nest.
  std::vector<Target> targets;
  collect_targets(root, targets);
  for (auto it = targets.rbegin(); it != targets.rend(); ++it)
    apply_one(root, *it);
  const bool write_back = double_buffer_write_back(root);
  return !targets.empty() || write_back;
}

}  // namespace swatop::opt
