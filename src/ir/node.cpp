#include "ir/node.hpp"

#include "common/check.hpp"

namespace swatop::ir {

namespace {

StmtPtr new_stmt(StmtKind kind) {
  ++detail::nodes_built;
  auto s = std::make_shared<Stmt>();
  s->kind = kind;
  return s;
}

}  // namespace

StmtPtr make_seq(std::vector<StmtPtr> body) {
  auto s = new_stmt(StmtKind::Seq);
  s->body = std::move(body);
  return s;
}

StmtPtr make_for(VarId var, Expr extent, StmtPtr body, bool reduction) {
  SWATOP_CHECK(var.valid()) << "for loop without variable";
  auto s = new_stmt(StmtKind::For);
  s->var = var;
  s->extent = std::move(extent);
  s->for_body = std::move(body);
  s->reduction = reduction;
  return s;
}

StmtPtr make_if(Expr cond, StmtPtr then_s, StmtPtr else_s) {
  auto s = new_stmt(StmtKind::If);
  s->cond = std::move(cond);
  s->then_s = std::move(then_s);
  s->else_s = std::move(else_s);
  return s;
}

StmtPtr make_spm_alloc(std::string name, std::int64_t floats,
                       bool double_buffered) {
  SWATOP_CHECK(floats > 0) << "SPM alloc of " << floats << " floats";
  auto s = new_stmt(StmtKind::SpmAlloc);
  s->buf_name = std::move(name);
  s->buf_floats = floats;
  s->double_buffered = double_buffered;
  return s;
}

StmtPtr make_spm_zero(std::string buf, Expr off, Expr floats) {
  auto s = new_stmt(StmtKind::SpmZero);
  s->buf_name = std::move(buf);
  s->zero_off = std::move(off);
  s->zero_floats = std::move(floats);
  return s;
}

StmtPtr make_dma(StmtKind get_or_put, DmaAttrs attrs) {
  SWATOP_CHECK(get_or_put == StmtKind::DmaGet ||
               get_or_put == StmtKind::DmaPut)
      << "make_dma with non-DMA kind";
  auto s = new_stmt(get_or_put);
  s->dma = std::move(attrs);
  return s;
}

StmtPtr make_dma_wait(Expr reply) {
  auto s = new_stmt(StmtKind::DmaWait);
  s->wait_reply = std::move(reply);
  return s;
}

StmtPtr make_gemm(GemmAttrs attrs) {
  auto s = new_stmt(StmtKind::Gemm);
  s->gemm = std::move(attrs);
  return s;
}

StmtPtr make_comment(std::string text) {
  auto s = new_stmt(StmtKind::Comment);
  s->text = std::move(text);
  return s;
}

StmtPtr deep_copy(const StmtPtr& s) {
  if (s == nullptr) return nullptr;
  ++detail::nodes_built;
  auto n = std::make_shared<Stmt>(*s);
  n->body.clear();
  for (const StmtPtr& c : s->body) n->body.push_back(deep_copy(c));
  n->for_body = deep_copy(s->for_body);
  n->then_s = deep_copy(s->then_s);
  n->else_s = deep_copy(s->else_s);
  return n;
}

void seq_push(StmtPtr& seq, StmtPtr child) {
  SWATOP_CHECK(seq != nullptr && seq->kind == StmtKind::Seq)
      << "seq_push on non-Seq";
  seq->body.push_back(std::move(child));
}

}  // namespace swatop::ir
