#include "ir/node.hpp"

#include "common/check.hpp"

namespace swatop::ir {

void detail::wrong_kind(StmtKind kind, const char* wanted) {
  throw CheckError(std::string("statement is a ") + kind_name(kind) +
                   ", not a " + wanted);
}

namespace {

/// A new node of type T (a copy of `from`, when given), counted.
template <class T, class... From>
std::shared_ptr<T> new_node(From&&... from) {
  ++detail::nodes_built;
  return std::make_shared<T>(std::forward<From>(from)...);
}

}  // namespace

StmtPtr make_seq(std::vector<StmtPtr> body) {
  auto s = new_node<Seq>();
  s->body = std::move(body);
  return s;
}

StmtPtr make_for(VarId var, Expr extent, StmtPtr body, bool reduction) {
  SWATOP_CHECK(var.valid()) << "for loop without variable";
  auto s = new_node<For>();
  s->var = var;
  s->extent = std::move(extent);
  s->body = std::move(body);
  s->reduction = reduction;
  return s;
}

StmtPtr make_if(Expr cond, StmtPtr then_s, StmtPtr else_s) {
  auto s = new_node<If>();
  s->cond = std::move(cond);
  s->then_s = std::move(then_s);
  s->else_s = std::move(else_s);
  return s;
}

StmtPtr make_spm_alloc(std::string name, std::int64_t floats,
                       bool double_buffered) {
  SWATOP_CHECK(floats > 0) << "SPM alloc of " << floats << " floats";
  auto s = new_node<SpmAlloc>();
  s->buf_name = std::move(name);
  s->buf_floats = floats;
  s->double_buffered = double_buffered;
  return s;
}

StmtPtr make_spm_zero(std::string buf, Expr off, Expr floats) {
  auto s = new_node<SpmZero>();
  s->buf_name = std::move(buf);
  s->off = std::move(off);
  s->floats = std::move(floats);
  return s;
}

StmtPtr make_dma(StmtKind get_or_put, DmaAttrs attrs) {
  auto s = new_node<Dma>(get_or_put);
  s->attrs = std::move(attrs);
  return s;
}

StmtPtr make_dma_wait(Expr reply) {
  auto s = new_node<DmaWait>();
  s->reply = std::move(reply);
  return s;
}

StmtPtr make_gemm(GemmAttrs attrs) {
  auto s = new_node<Gemm>();
  s->attrs = std::move(attrs);
  return s;
}

StmtPtr deep_copy(const StmtPtr& s) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case StmtKind::Seq: {
      const std::vector<StmtPtr>& body = s->as<Seq>().body;
      auto n = new_node<Seq>();
      n->body.reserve(body.size());
      for (const StmtPtr& c : body) n->body.push_back(deep_copy(c));
      return n;
    }
    case StmtKind::For: {
      auto n = new_node<For>(s->as<For>());
      n->body = deep_copy(n->body);
      return n;
    }
    case StmtKind::If: {
      auto n = new_node<If>(s->as<If>());
      n->then_s = deep_copy(n->then_s);
      n->else_s = deep_copy(n->else_s);
      return n;
    }
    case StmtKind::SpmAlloc:
      return new_node<SpmAlloc>(s->as<SpmAlloc>());
    case StmtKind::SpmZero:
      return new_node<SpmZero>(s->as<SpmZero>());
    case StmtKind::DmaGet:
    case StmtKind::DmaPut:
      return new_node<Dma>(s->as<Dma>());
    case StmtKind::DmaWait:
      return new_node<DmaWait>(s->as<DmaWait>());
    case StmtKind::Gemm:
      return new_node<Gemm>(s->as<Gemm>());
  }
  SWATOP_UNREACHABLE("bad stmt kind in deep_copy");
}

void seq_push(StmtPtr& seq, StmtPtr child) {
  SWATOP_CHECK(seq != nullptr) << "seq_push on a null statement";
  seq->as<Seq>().body.push_back(std::move(child));
}

}  // namespace swatop::ir
