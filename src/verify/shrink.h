// Automatic minimization of failing scenarios.
//
// shrink() greedily deletes whatever it can while the scenario keeps
// failing: whole groups (with their events), individual events, individual
// members, and finally the topology itself (re-mapping hosts onto the
// smaller fabric). The result is the minimal repro the greedy passes reach —
// typically one group, a couple of members, and one or two events.
//
// to_fixture() renders a scenario as a ready-to-paste GoogleTest case against
// the verify API, so a CI fuzz failure turns into a permanent regression
// test by copy-paste.
#pragma once

#include <string>

#include "verify/differ.h"
#include "verify/scenario.h"

namespace elmo::verify {

// Returns the smallest still-failing scenario found within `budget`
// candidate runs. If `failing` does not actually fail under `mutation`, it
// is returned unchanged.
Scenario shrink(const Scenario& failing, Mutation mutation = Mutation::kNone,
                std::size_t budget = 600);

// Self-contained C++ test fixture reproducing `scenario`.
std::string to_fixture(const Scenario& scenario);

}  // namespace elmo::verify
