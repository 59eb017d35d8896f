#include "vm/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lfi::vm {

void TreePathBetween(const SnapshotTree& tree, SnapshotId a, SnapshotId b,
                     std::vector<SnapshotId>* out) {
  std::vector<SnapshotId>& path = *out;
  path.clear();
  if (a == b) return;
  auto depth = [&](SnapshotId id) {
    return id == kNoSnapshot ? ~uint32_t{0} : tree.nodes[id].depth;
  };
  // Walk the deeper side up until both sit at the same depth, then climb
  // in lockstep to the common ancestor. kNoSnapshot acts as a virtual
  // node above the root (depth underflows to max, so the other side
  // climbs all the way out).
  while (a != b) {
    if (a != kNoSnapshot && (b == kNoSnapshot || depth(a) >= depth(b))) {
      path.push_back(a);
      a = tree.nodes[a].parent;
    } else if (b != kNoSnapshot) {
      path.push_back(b);
      b = tree.nodes[b].parent;
    } else {
      break;  // both kNoSnapshot
    }
  }
}

const uint8_t* FindModulePage(const SnapshotTree& tree, SnapshotId target,
                              size_t m, uint32_t page,
                              uint64_t* nodes_walked) {
  for (SnapshotId id = target; id != kNoSnapshot; id = tree.nodes[id].parent) {
    if (nodes_walked) ++*nodes_walked;
    if (const uint8_t* p = tree.nodes[id].module_data[m].page(page)) return p;
  }
  assert(false && "module page missing from snapshot tree (root not full?)");
  return nullptr;
}

const uint8_t* FindProcPage(const SnapshotTree& tree, SnapshotId target,
                            size_t proc_index,
                            const PageDelta ProcessNodeState::*sel,
                            uint32_t page, uint64_t* nodes_walked) {
  for (SnapshotId id = target; id != kNoSnapshot; id = tree.nodes[id].parent) {
    const ProcessNodeState& ps = tree.nodes[id].procs[proc_index];
    if (nodes_walked) ++*nodes_walked;
    if (const uint8_t* p = (ps.*sel).page(page)) return p;
    if (ps.full) break;  // a full node holds every live page of the segment
  }
  return nullptr;  // page beyond the segment's last full capture: untouched
}

}  // namespace lfi::vm
