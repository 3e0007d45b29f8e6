#include "dsl/dsl.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/check.hpp"

namespace swatop::dsl {

std::int64_t Strategy::factor(const std::string& name) const {
  auto it = factors_.find(name);
  SWATOP_CHECK(it != factors_.end()) << "unknown factor '" << name << "'";
  return it->second;
}

const std::string& Strategy::choice(const std::string& name) const {
  auto it = choices_.find(name);
  SWATOP_CHECK(it != choices_.end()) << "unknown choice '" << name << "'";
  return it->second;
}

std::string Strategy::to_string() const {
  // Deterministic order for goldens: sort keys.
  std::vector<std::string> keys;
  for (const auto& [k, v] : factors_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::ostringstream os;
  for (const auto& k : keys) os << k << "=" << factors_.at(k) << " ";
  keys.clear();
  for (const auto& [k, v] : choices_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) os << k << "=" << choices_.at(k) << " ";
  if (epilogue_.any()) os << "epi=" << epilogue_.tag() << " ";
  std::string s = os.str();
  if (!s.empty()) s.pop_back();
  return s;
}

std::string Strategy::serialize() const {
  std::vector<std::string> keys;
  for (const auto& [k, v] : factors_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::ostringstream os;
  for (const auto& k : keys) os << "f:" << k << "=" << factors_.at(k) << " ";
  keys.clear();
  for (const auto& [k, v] : choices_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) os << "c:" << k << "=" << choices_.at(k) << " ";
  // Epilogue fields, only when non-default, in a fixed (sorted) order.
  if (epilogue_.bias) os << "e:bias=1 ";
  if (epilogue_.out_pad > 0) os << "e:pad=" << epilogue_.out_pad << " ";
  if (epilogue_.relu) os << "e:relu=1 ";
  if (epilogue_.residual) os << "e:res=1 ";
  std::string s = os.str();
  if (!s.empty()) s.pop_back();
  return s;
}

std::optional<Strategy> Strategy::parse(const std::string& text) {
  Strategy out;
  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    // Token shape: ("f:"|"c:"|"e:") name "=" value.
    if (tok.size() < 4 || tok[1] != ':' ||
        (tok[0] != 'f' && tok[0] != 'c' && tok[0] != 'e'))
      return std::nullopt;
    const std::size_t eq = tok.find('=', 2);
    if (eq == std::string::npos || eq == 2 || eq + 1 >= tok.size())
      return std::nullopt;
    const std::string name = tok.substr(2, eq - 2);
    const std::string value = tok.substr(eq + 1);
    if (tok[0] == 'c') {
      out.set_choice(name, value);
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0')
      return std::nullopt;
    if (tok[0] == 'f') {
      out.set_factor(name, static_cast<std::int64_t>(v));
      continue;
    }
    // Epilogue field: known names only, flags must be exactly 1 (a default
    // value is never serialized), pad must be positive.
    if (name == "bias" && v == 1) {
      out.epilogue_.bias = true;
    } else if (name == "relu" && v == 1) {
      out.epilogue_.relu = true;
    } else if (name == "res" && v == 1) {
      out.epilogue_.residual = true;
    } else if (name == "pad" && v > 0) {
      out.epilogue_.out_pad = v;
    } else {
      return std::nullopt;
    }
  }
  return out;
}

void ScheduleSpace::add(FactorVar f) {
  SWATOP_CHECK(!f.candidates.empty())
      << "factor '" << f.name << "' with no candidates";
  factors_.push_back(std::move(f));
}

void ScheduleSpace::add(ChoiceVar c) {
  SWATOP_CHECK(!c.options.empty())
      << "choice '" << c.name << "' with no options";
  choices_.push_back(std::move(c));
}

std::int64_t ScheduleSpace::size() const {
  std::int64_t n = 1;
  for (const auto& f : factors_)
    n *= static_cast<std::int64_t>(f.candidates.size());
  for (const auto& c : choices_)
    n *= static_cast<std::int64_t>(c.options.size());
  return n;
}

Strategy ScheduleSpace::at(std::int64_t index) const {
  SWATOP_CHECK(index >= 0 && index < size())
      << "strategy index " << index << " outside a space of " << size();
  Strategy s;
  s.set_epilogue(epilogue_);
  // Mixed-radix decode, least significant digit = last-declared variable.
  for (auto it = choices_.rbegin(); it != choices_.rend(); ++it) {
    const auto n = static_cast<std::int64_t>(it->options.size());
    s.set_choice(it->name, it->options[static_cast<std::size_t>(index % n)]);
    index /= n;
  }
  for (auto it = factors_.rbegin(); it != factors_.rend(); ++it) {
    const auto n = static_cast<std::int64_t>(it->candidates.size());
    s.set_factor(it->name, it->candidates[static_cast<std::size_t>(index % n)]);
    index /= n;
  }
  return s;
}

std::vector<Strategy> ScheduleSpace::enumerate(
    const std::function<bool(const Strategy&)>& valid) const {
  std::vector<Strategy> out;
  const std::int64_t n = size();
  for (std::int64_t i = 0; i < n; ++i) {
    Strategy s = at(i);
    if (!valid || valid(s)) out.push_back(std::move(s));
  }
  return out;
}

StrategyNames::StrategyNames(const ScheduleSpace& space) {
  // Index strides in declaration order (factors, then choices; the last
  // declared varies fastest).
  const std::size_t nf = space.factors().size();
  const std::size_t nv = nf + space.choices().size();
  std::vector<std::int64_t> stride(nv, 1);
  for (std::size_t k = nv; k-- > 1;) {
    const std::size_t radix =
        k < nf ? space.factors()[k].candidates.size()
               : space.choices()[k - nf].options.size();
    stride[k - 1] = stride[k] * static_cast<std::int64_t>(radix);
  }
  // to_string() prints factors by name, then choices by name; at() lets the
  // first-declared of two same-named variables win.
  std::map<std::string, std::size_t> factors, choices;
  for (std::size_t k = 0; k < nf; ++k)
    factors.emplace(space.factors()[k].name, k);
  for (std::size_t k = nf; k < nv; ++k)
    choices.emplace(space.choices()[k - nf].name, k);
  for (const auto& [name, k] : factors) {
    Var v;
    v.stride = stride[k];
    for (const std::int64_t f : space.factors()[k].candidates)
      v.tokens.push_back(name + "=" + std::to_string(f) + " ");
    vars_.push_back(std::move(v));
  }
  for (const auto& [name, k] : choices) {
    Var v;
    v.stride = stride[k];
    for (const std::string& o : space.choices()[k - nf].options)
      v.tokens.push_back(name + "=" + o + " ");
    vars_.push_back(std::move(v));
  }
  if (space.epilogue().any()) tail_ = "epi=" + space.epilogue().tag() + " ";
}

std::string StrategyNames::operator()(std::int64_t index) const {
  const auto token = [index](const Var& v) -> const std::string& {
    const auto radix = static_cast<std::int64_t>(v.tokens.size());
    return v.tokens[static_cast<std::size_t>((index / v.stride) % radix)];
  };
  // Exact capacity: a journal keeps one name per strategy of a space.
  std::size_t size = tail_.size();
  for (const Var& v : vars_) size += token(v).size();
  std::string out;
  out.reserve(size);
  for (const Var& v : vars_) out += token(v);
  out += tail_;
  if (!out.empty()) out.pop_back();
  return out;
}

bool OperatorDef::prefetch_enabled(const Strategy& s) const {
  return !s.has_choice("prefetch") || s.choice("prefetch") == "on";
}

void OperatorDef::fill_inputs(sim::CoreGroup&, const BoundTensors&,
                              const Strategy&) const {}

double OperatorDef::check_output(sim::CoreGroup&, const BoundTensors&,
                                 const Strategy&) const {
  return 0.0;
}

}  // namespace swatop::dsl
