#include "core/profile.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "xml/xml.hpp"

namespace lfi::core {

const char* SideEffectTypeName(ProfileSideEffect::Type t) {
  switch (t) {
    case ProfileSideEffect::Type::Tls: return "TLS";
    case ProfileSideEffect::Type::Global: return "GLOBAL";
    case ProfileSideEffect::Type::Arg: return "ARG";
  }
  return "?";
}

const ProfileErrorCode* FunctionProfile::error_code(int64_t retval) const {
  for (const auto& ec : error_codes) {
    if (ec.retval == retval) return &ec;
  }
  return nullptr;
}

bool FunctionProfile::has_analyzed_codes() const {
  for (const auto& ec : error_codes) {
    if (ec.provenance == Provenance::Analyzed) return true;
  }
  return false;
}

std::vector<Injectable> FunctionProfile::injectables(
    bool feasible_only) const {
  // Feasibility gate: only meaningful when the analysis vouched for at
  // least one code — a purely hand-written profile keeps its full set.
  const bool restrict_to_analyzed = feasible_only && has_analyzed_codes();
  std::vector<Injectable> out;
  for (const auto& ec : error_codes) {
    if (restrict_to_analyzed && ec.provenance != Provenance::Analyzed) {
      continue;
    }
    bool any = false;
    for (const auto& se : ec.side_effects) {
      if (se.type != ProfileSideEffect::Type::Tls) continue;
      for (int64_t v : se.values) {
        out.emplace_back(ec.retval, v);
        any = true;
      }
    }
    if (!any) out.emplace_back(ec.retval, std::nullopt);
  }
  return out;
}

const FunctionProfile* FaultProfile::function(std::string_view name) const {
  for (const auto& fn : functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

ProfileIndex::ProfileIndex(const std::vector<FaultProfile>& profiles,
                           util::SymbolTable& symbols, bool feasible_only) {
  for (const FaultProfile& profile : profiles) {
    for (const FunctionProfile& fn : profile.functions) {
      util::SymbolId id = symbols.Intern(fn.name);
      if (id >= by_id_.size()) by_id_.resize(id + 1);
      if (by_id_[id].profile == nullptr) {
        by_id_[id] = Entry{&fn, fn.injectables(feasible_only)};
      }
    }
  }
}

std::string FaultProfile::ToXml() const {
  xml::Node root("profile");
  root.set_attr("library", library);
  for (const auto& fn : functions) {
    xml::Node* fnode = root.add_child("function");
    fnode->set_attr("name", fn.name);
    if (fn.incomplete) fnode->set_attr("incomplete", "true");
    for (const auto& ec : fn.error_codes) {
      xml::Node* enode = fnode->add_child("error-codes");
      enode->set_attr("retval", Format("%lld", (long long)ec.retval));
      // Only analyzed provenance is spelled out; absence means assumed, so
      // pre-provenance profiles parse unchanged.
      if (ec.provenance == Provenance::Analyzed) {
        enode->set_attr("provenance", "analyzed");
      }
      for (const auto& se : ec.side_effects) {
        // One element per value, as in the paper's sample profile.
        if (se.values.empty()) {
          xml::Node* snode = enode->add_child("side-effect");
          snode->set_attr("type", SideEffectTypeName(se.type));
          if (se.type == ProfileSideEffect::Type::Arg) {
            snode->set_attr("argument", Format("%d", se.arg_index));
          } else {
            snode->set_attr("module", se.module);
            snode->set_attr("offset", Format("%u", se.offset));
          }
          continue;
        }
        for (int64_t v : se.values) {
          xml::Node* snode = enode->add_child("side-effect");
          snode->set_attr("type", SideEffectTypeName(se.type));
          if (se.type == ProfileSideEffect::Type::Arg) {
            snode->set_attr("argument", Format("%d", se.arg_index));
          } else {
            snode->set_attr("module", se.module);
            snode->set_attr("offset", Format("%u", se.offset));
          }
          snode->set_text(Format("%lld", (long long)v));
        }
      }
    }
  }
  return root.serialize();
}

Result<FaultProfile> FaultProfile::FromXml(std::string_view text) {
  auto parsed = xml::Parse(text);
  if (!parsed.ok()) return Err(parsed.error());
  const xml::Node& root = *parsed.value();
  if (root.name() != "profile") return Err("profile: root must be <profile>");
  FaultProfile profile;
  profile.library = root.attr_or("library", "");
  for (const xml::Node* fnode : root.children_named("function")) {
    FunctionProfile fn;
    fn.name = fnode->attr_or("name", "");
    if (fn.name.empty()) return Err("profile: <function> without name");
    fn.incomplete = fnode->attr_or("incomplete", "false") == "true";
    for (const xml::Node* enode : fnode->children_named("error-codes")) {
      ProfileErrorCode ec;
      auto retval = enode->attr_int("retval");
      if (!retval) return Err("profile: <error-codes> without retval");
      ec.retval = *retval;
      std::string provenance = enode->attr_or("provenance", "assumed");
      if (provenance == "analyzed") ec.provenance = Provenance::Analyzed;
      else if (provenance == "assumed") ec.provenance = Provenance::Assumed;
      else return Err("profile: bad provenance " + provenance);
      for (const xml::Node* snode : enode->children_named("side-effect")) {
        ProfileSideEffect se;
        std::string type = snode->attr_or("type", "TLS");
        if (type == "TLS") se.type = ProfileSideEffect::Type::Tls;
        else if (type == "GLOBAL") se.type = ProfileSideEffect::Type::Global;
        else if (type == "ARG") se.type = ProfileSideEffect::Type::Arg;
        else return Err("profile: bad side-effect type " + type);
        se.module = snode->attr_or("module", "");
        se.offset = static_cast<uint32_t>(snode->attr_int("offset").value_or(0));
        se.arg_index = static_cast<int>(snode->attr_int("argument").value_or(0));
        int64_t v = 0;
        if (ParseInt(snode->text(), &v)) se.values.push_back(v);
        // Merge into an existing effect at the same location.
        bool merged = false;
        for (auto& existing : ec.side_effects) {
          if (existing.type == se.type && existing.module == se.module &&
              existing.offset == se.offset &&
              existing.arg_index == se.arg_index) {
            existing.values.insert(existing.values.end(), se.values.begin(),
                                   se.values.end());
            merged = true;
            break;
          }
        }
        if (!merged) ec.side_effects.push_back(std::move(se));
      }
      for (auto& se : ec.side_effects) {
        std::sort(se.values.begin(), se.values.end());
        se.values.erase(std::unique(se.values.begin(), se.values.end()),
                        se.values.end());
      }
      fn.error_codes.push_back(std::move(ec));
    }
    profile.functions.push_back(std::move(fn));
  }
  return profile;
}

}  // namespace lfi::core
