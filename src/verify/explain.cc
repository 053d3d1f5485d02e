#include "verify/explain.h"

#include <map>
#include <sstream>

namespace elmo::verify {

const char* to_string(CopyCause cause) {
  switch (cause) {
    case CopyCause::kIntended:
      return "intended";
    case CopyCause::kDuplicate:
      return "duplicate";
    case CopyCause::kViaDefaultPRule:
      return "via-default-prule";
    case CopyCause::kViaSharedPRule:
      return "via-shared-prule";
    case CopyCause::kViaSRule:
      return "via-srule";
    case CopyCause::kViaExactPRule:
      return "via-exact-prule";
    case CopyCause::kUnattributed:
      return "unattributed";
  }
  return "?";
}

namespace {

CopyCause spurious_cause(const obs::HopDecision& leaf) {
  switch (leaf.rule) {
    case obs::RuleClass::kDefault:
      return CopyCause::kViaDefaultPRule;
    case obs::RuleClass::kPRule:
      return leaf.prule_shared ? CopyCause::kViaSharedPRule
                               : CopyCause::kViaExactPRule;
    case obs::RuleClass::kSRule:
      return CopyCause::kViaSRule;
    default:
      return CopyCause::kUnattributed;
  }
}

void tally(RedundancyBreakdown& b, CopyCause cause) {
  switch (cause) {
    case CopyCause::kIntended:
      ++b.intended;
      break;
    case CopyCause::kDuplicate:
      ++b.duplicates;
      break;
    case CopyCause::kViaDefaultPRule:
      ++b.via_default;
      break;
    case CopyCause::kViaSharedPRule:
      ++b.via_shared_prule;
      break;
    case CopyCause::kViaSRule:
      ++b.via_srule;
      break;
    case CopyCause::kViaExactPRule:
      ++b.via_exact_prule;
      break;
    case CopyCause::kUnattributed:
      ++b.unattributed;
      break;
  }
}

const char* annotation(CopyCause cause) {
  switch (cause) {
    case CopyCause::kIntended:
      return "<- intended";
    case CopyCause::kDuplicate:
      return "<- REDUNDANT: duplicate copy";
    case CopyCause::kViaDefaultPRule:
      return "<- REDUNDANT: via default p-rule";
    case CopyCause::kViaSharedPRule:
      return "<- REDUNDANT: via shared p-rule";
    case CopyCause::kViaSRule:
      return "<- REDUNDANT: via shared s-rule";
    case CopyCause::kViaExactPRule:
      return "<- REDUNDANT: via exact p-rule (encoding bug?)";
    case CopyCause::kUnattributed:
      return "<- REDUNDANT: unattributed";
  }
  return "";
}

void render_annotated(const obs::SendTrace& trace,
                      const std::map<std::size_t, const char*>& notes,
                      std::size_t index, std::size_t depth,
                      std::ostringstream& out) {
  const auto& hop = trace.hops[index];
  out << std::string(2 * depth, ' ') << obs::node_name(hop.layer, hop.node);
  if (hop.lost) {
    out << "  [lost in flight]\n";
    return;
  }
  if (index == 0) {
    out << "  [source, " << hop.bytes_in << "B on wire]\n";
  } else {
    out << "  [" << obs::describe(hop.decision) << ", " << hop.bytes_in
        << "B in]";
    if (const auto it = notes.find(index); it != notes.end()) {
      out << "  " << it->second;
    }
    out << "\n";
  }
  for (const auto child : hop.children) {
    render_annotated(trace, notes, child, depth + 1, out);
  }
}

}  // namespace

SendExplanation explain_send(const obs::SendTrace& trace,
                             const DeliveryOracle::Expectation& expectation) {
  SendExplanation ex;
  ex.trace = trace;

  std::map<topo::HostId, std::size_t> copies_seen;
  for (std::size_t i = 1; i < trace.hops.size(); ++i) {
    const auto& hop = trace.hops[i];
    if (hop.layer != topo::Layer::kHost || hop.lost) continue;

    ExplainedCopy copy;
    copy.hop = i;
    copy.host = hop.node;
    const obs::HopDecision* leaf = nullptr;
    if (hop.parent != obs::kNoProvParent) {
      leaf = &trace.hops[hop.parent].decision;
      copy.leaf_rule = leaf->rule;
    }

    const auto seen = ++copies_seen[copy.host];
    if (expectation.expected_hosts.contains(copy.host)) {
      copy.cause = seen == 1 ? CopyCause::kIntended : CopyCause::kDuplicate;
    } else {
      copy.cause = leaf != nullptr ? spurious_cause(*leaf)
                                   : CopyCause::kUnattributed;
    }
    tally(ex.breakdown, copy.cause);
    ex.copies.push_back(copy);
  }

  for (const auto& [host, vms] : expectation.expected_hosts) {
    (void)vms;
    if (!copies_seen.contains(host)) ex.missing.push_back(host);
  }
  return ex;
}

std::string SendExplanation::render() const {
  std::ostringstream out;
  out << "send group=" << trace.group << " from host" << trace.src_host
      << "\n";
  std::map<std::size_t, const char*> notes;
  for (const auto& copy : copies) notes[copy.hop] = annotation(copy.cause);
  if (!trace.hops.empty()) render_annotated(trace, notes, 0, 0, out);
  for (const auto host : missing) {
    out << "MISSING: host" << host << " expected a copy but got none\n";
  }
  const auto& b = breakdown;
  out << "attribution: " << b.intended << " intended";
  const struct {
    std::size_t count;
    const char* label;
  } causes[] = {
      {b.duplicates, "duplicate"},
      {b.via_default, "via default p-rule"},
      {b.via_shared_prule, "via shared p-rule"},
      {b.via_srule, "via s-rule"},
      {b.via_exact_prule, "via exact p-rule"},
      {b.unattributed, "unattributed"},
  };
  for (const auto& c : causes) {
    if (c.count > 0) out << ", " << c.count << " " << c.label;
  }
  out << " (" << b.total_redundant() << " redundant, " << missing.size()
      << " missing)\n";
  return out.str();
}

}  // namespace elmo::verify
