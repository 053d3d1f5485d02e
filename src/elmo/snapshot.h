// Controller state snapshot / restore.
//
// The paper's logically-centralized controller keeps its group directory in
// "fault-tolerant distributed directory systems" (§2). This module provides
// the serialization half of that story: a compact, versioned byte image of
// every group's durable state (tenant, membership, roles). Restoring into a
// fresh controller deterministically reproduces group ids, addresses and
// memberships.
//
// Only durable state is serialized: trees, encodings and s-rule
// reservations are recomputed by replaying the final memberships in id
// order. They equal the original's (verified byte-for-byte against its
// issued headers in tests) only with unlimited Fmax, no failed switch and no
// legacy leaves. A finite Fmax makes s-rule placement depend on the
// join/leave history, and the image holds neither that history, the
// failure set nor the legacy leaves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "elmo/controller.h"

namespace elmo {

// Serializes every live group of `controller` (including id gaps left by
// removed groups, so ids and addresses survive).
std::vector<std::uint8_t> snapshot(const Controller& controller);

// Replays a snapshot into `controller`, which must be freshly constructed
// (no groups) over the same topology and encoder configuration. Throws
// std::invalid_argument on a malformed or version-mismatched image and
// std::logic_error if the controller is not empty.
void restore(Controller& controller, std::span<const std::uint8_t> image);

}  // namespace elmo
