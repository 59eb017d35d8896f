#include "vm/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lfi::vm {

void TreePathBetween(const SnapshotTree& tree, SnapshotId a, SnapshotId b,
                     std::vector<SnapshotId>* out) {
  std::vector<SnapshotId>& path = *out;
  path.clear();
  // Walk the deeper side up until both sit at the same depth, then climb
  // in lockstep to the common ancestor (at worst the root).
  while (a != b) {
    SnapshotId& deeper =
        tree.nodes[a].depth >= tree.nodes[b].depth ? a : b;
    path.push_back(deeper);
    deeper = tree.nodes[deeper].parent;
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
