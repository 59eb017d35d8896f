#include "util/interner.hpp"

namespace lfi::util {

SymbolId SymbolTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SymbolId SymbolTable::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoSymbol : it->second;
}

const std::string& SymbolTable::name(SymbolId id) const {
  static const std::string empty;
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? names_[id] : empty;
}

size_t SymbolTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

uint64_t SymbolTable::lookups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

}  // namespace lfi::util
