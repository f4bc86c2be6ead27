/**
 * @file
 * BranchRecord helpers.
 */

#include "trace/branch_record.h"

namespace vlp {
namespace trace {

const char *
branchKindName(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Conditional:
        return "cond";
      case BranchKind::Unconditional:
        return "jump";
      case BranchKind::DirectCall:
        return "call";
      case BranchKind::IndirectJump:
        return "ijump";
      case BranchKind::IndirectCall:
        return "icall";
      case BranchKind::Return:
        return "ret";
    }
    return "unknown";
}

} // namespace trace
} // namespace vlp
