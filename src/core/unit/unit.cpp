#include "core/unit/unit.hpp"

#include <cstdlib>
#include <stdexcept>

namespace cg::core {

xml::Node UnitInfo::to_xml() const {
  xml::Node n("unit");
  n.set_attr("type", type_name);
  n.set_attr("package", package);
  if (is_source) n.set_attr("source", "true");
  if (concurrency == Concurrency::kPure) {
    n.set_attr("concurrency", "pure");
  } else if (concurrency == Concurrency::kSerialOnly) {
    n.set_attr("concurrency", "serial");
  }
  if (!description.empty()) {
    n.add_child("description").set_text(description);
  }
  for (const auto& p : inputs) {
    auto& c = n.add_child("input");
    c.set_attr("name", p.name);
    c.set_attr_int("accepts", p.accepts);
  }
  for (const auto& p : outputs) {
    auto& c = n.add_child("output");
    c.set_attr("name", p.name);
    c.set_attr_int("accepts", p.accepts);
  }
  return n;
}

UnitInfo UnitInfo::from_xml(const xml::Node& n) {
  if (n.name() != "unit") {
    throw xml::XmlError("expected <unit>, got <" + n.name() + ">");
  }
  UnitInfo info;
  info.type_name = n.require_attr("type");
  info.package = n.attr_or("package", "");
  info.is_source = n.attr_or("source", "false") == "true";
  const std::string conc = n.attr_or("concurrency", "stateful");
  if (conc == "pure") {
    info.concurrency = Concurrency::kPure;
  } else if (conc == "serial") {
    info.concurrency = Concurrency::kSerialOnly;
  } else if (conc == "stateful") {
    info.concurrency = Concurrency::kStateful;
  } else {
    throw xml::XmlError("unknown concurrency '" + conc + "'");
  }
  if (const xml::Node* d = n.child("description")) {
    info.description = d->text();
  }
  for (const xml::Node* c : n.children("input")) {
    info.inputs.push_back(PortSpec{
        c->require_attr("name"),
        static_cast<std::uint32_t>(c->attr_int("accepts", kAnyType))});
  }
  for (const xml::Node* c : n.children("output")) {
    info.outputs.push_back(PortSpec{
        c->require_attr("name"),
        static_cast<std::uint32_t>(c->attr_int("accepts", kAnyType))});
  }
  return info;
}

void ParamSet::set_double(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  kv_[key] = buf;
}

void ParamSet::set_int(const std::string& key, long long v) {
  kv_[key] = std::to_string(v);
}

std::string ParamSet::get(const std::string& key,
                          const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

double ParamSet::get_double(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("parameter '" + key + "' is not a number: " +
                                it->second);
  }
  return v;
}

long long ParamSet::get_int(const std::string& key, long long fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("parameter '" + key +
                                "' is not an integer: " + it->second);
  }
  return v;
}

long long ParamSet::get_int_in(std::string_view unit, const std::string& key,
                               long long fallback, long long lo,
                               long long hi) const {
  const long long v = get_int(key, fallback);
  if (v >= lo && v <= hi) return v;
  std::string msg(unit);
  msg.append(": ").append(key).append(" must be ");
  if (hi == std::numeric_limits<long long>::max()) {
    msg.append(">= ").append(std::to_string(lo));
  } else {
    msg.append("in [")
        .append(std::to_string(lo))
        .append(", ")
        .append(std::to_string(hi))
        .append("]");
  }
  throw std::invalid_argument(msg);
}

bool ParamSet::get_bool(const std::string& key, bool fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("parameter '" + key + "' is not a bool: " +
                              it->second);
}

const DataItem& ProcessContext::input(std::size_t port) const {
  static const DataItem kEmpty;
  if (port >= inputs_.size()) return kEmpty;
  return inputs_[port];
}

bool ProcessContext::has_input(std::size_t port) const {
  return port < inputs_.size() && !inputs_[port].empty();
}

void ProcessContext::emit(std::size_t port, DataItem item) {
  emissions_.emplace_back(port, std::move(item));
}

void ProcessContext::charge_cpu(double seconds) {
  if (sandbox_) sandbox_->charge_cpu(seconds);
}

}  // namespace cg::core
