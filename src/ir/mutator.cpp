#include "ir/mutator.hpp"

#include "common/check.hpp"

namespace swatop::ir {

void visit(const StmtPtr& s, const std::function<void(const StmtPtr&)>& fn) {
  if (s == nullptr) return;
  fn(s);
  switch (s->kind) {
    case StmtKind::Seq:
      for (const StmtPtr& c : s->as<Seq>().body) visit(c, fn);
      return;
    case StmtKind::For:
      visit(s->as<For>().body, fn);
      return;
    case StmtKind::If: {
      const If& i = s->as<If>();
      visit(i.then_s, fn);
      visit(i.else_s, fn);
      return;
    }
    default:
      return;
  }
}

StmtPtr transform(StmtPtr s, const std::function<StmtPtr(StmtPtr)>& fn) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case StmtKind::Seq: {
      std::vector<StmtPtr>& body = s->as<Seq>().body;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < body.size(); ++i) {
        StmtPtr t = transform(std::move(body[i]), fn);
        if (t != nullptr) body[kept++] = std::move(t);
      }
      body.resize(kept);
      break;
    }
    case StmtKind::For: {
      For& f = s->as<For>();
      if (f.body != nullptr) {
        StmtPtr t = transform(std::move(f.body), fn);
        SWATOP_CHECK(t != nullptr) << "cannot delete the body of a For";
        f.body = std::move(t);
      }
      break;
    }
    case StmtKind::If: {
      If& i = s->as<If>();
      if (i.then_s != nullptr) i.then_s = transform(std::move(i.then_s), fn);
      if (i.else_s != nullptr) i.else_s = transform(std::move(i.else_s), fn);
      break;
    }
    default:
      break;
  }
  return fn(std::move(s));
}

}  // namespace swatop::ir
