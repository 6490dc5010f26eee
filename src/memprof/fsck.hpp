// Integrity scan of epoch object maps — memprof's entry in the fsck handler
// table (core/fsck.hpp), which viprof_fsck passes to core::fsck_tree
// alongside the sample-log and code-map handlers.
//
// Every omap.<epoch> file under the tree is salvage-parsed. A damaged map
// yields its longest parseable prefix; the declared header counts make the
// loss *exact*: per damaged file, salvaged + lost == declared, and summed
// over the tree the declared totals equal what the agent acked at write
// time — so a kill mid object-map write degrades to counted loss
// (unresolved.obj.no_map at resolve time), never to wrong attribution.
#pragma once

#include "core/fsck.hpp"

namespace viprof::memprof {

/// The object maps (`omap.<epoch>` files) anywhere in the tree. With a
/// recovery tree, damaged maps are rewritten as their salvaged prefix
/// (truncated marker set — resolution will refuse to walk past them).
core::FsckHandler object_map_fsck_handler();

}  // namespace viprof::memprof
