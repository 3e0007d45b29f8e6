#include "ir/mutator.hpp"

#include "common/check.hpp"

namespace swatop::ir {

void visit(const StmtPtr& s, const std::function<void(const StmtPtr&)>& fn) {
  if (s == nullptr) return;
  fn(s);
  for (const StmtPtr& c : s->body) visit(c, fn);
  visit(s->for_body, fn);
  visit(s->then_s, fn);
  visit(s->else_s, fn);
}

StmtPtr transform(StmtPtr s, const std::function<StmtPtr(StmtPtr)>& fn) {
  if (s == nullptr) return nullptr;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < s->body.size(); ++i) {
    StmtPtr t = transform(std::move(s->body[i]), fn);
    if (t != nullptr) s->body[kept++] = std::move(t);
  }
  s->body.resize(kept);
  if (s->for_body != nullptr) {
    StmtPtr t = transform(std::move(s->for_body), fn);
    SWATOP_CHECK(t != nullptr) << "cannot delete the body of a For";
    s->for_body = std::move(t);
  }
  if (s->then_s != nullptr) s->then_s = transform(std::move(s->then_s), fn);
  if (s->else_s != nullptr) s->else_s = transform(std::move(s->else_s), fn);
  return fn(std::move(s));
}

}  // namespace swatop::ir
