#include "obs/trace.h"

#include "obs/json_writer.h"
#include "util/table.h"

namespace mbi::obs {

namespace {

// Built with += rather than operator+ chains: GCC 12's -Wrestrict misfires
// on `const char* + std::string&&` concatenation (GCC bug 105651).
std::string NodeName(const TreeNode& node) {
  std::string out = "h";
  out += std::to_string(node.height);
  out += "/p";
  out += std::to_string(node.pos);
  return out;
}

std::string RangeName(const IdRange& range) {
  std::string out = "[";
  out += std::to_string(range.begin);
  out += ", ";
  out += std::to_string(range.end);
  out += ")";
  return out;
}

void AppendNodeJson(JsonWriter* w, const TreeNode& node) {
  w->BeginObject();
  w->Key("height");
  w->Int(node.height);
  w->Key("pos");
  w->Int(node.pos);
  w->EndObject();
}

void AppendRangeJson(JsonWriter* w, const IdRange& range) {
  w->BeginObject();
  w->Key("begin");
  w->Int(range.begin);
  w->Key("end");
  w->Int(range.end);
  w->EndObject();
}

void AppendStatsJson(JsonWriter* w, const SearchStats& s) {
  w->BeginObject();
  w->Key("nodes_expanded");
  w->Uint(s.nodes_expanded);
  w->Key("distance_evaluations");
  w->Uint(s.distance_evaluations);
  w->Key("pool_rejects");
  w->Uint(s.pool_rejects);
  w->Key("filter_hits");
  w->Uint(s.filter_hits);
  w->EndObject();
}

}  // namespace

std::string QueryTrace::ToString() const {
  std::string out;
  out += "EXPLAIN TkNN query  window=[" + std::to_string(window.start) + ", " +
         std::to_string(window.end) + ")  ids=" + RangeName(id_range) +
         "  k=" + std::to_string(params.k) +
         "  tau=" + FormatFloat(tau, 2) +
         "  eps=" + FormatFloat(params.epsilon, 2) + "\n";

  out += "\nblock selection (Algorithm 4, preorder):\n";
  TablePrinter sel({"node", "ids", "r_o", "decision"});
  for (const SelectionStep& s : selection) {
    sel.AddRow({NodeName(s.node), RangeName(s.range),
                FormatFloat(s.overlap_ratio, 3),
                SelectionDecisionName(s.decision)});
  }
  out += sel.ToString();

  out += "\nblocks searched:\n";
  TablePrinter blk({"node", "ids", "r_o", "mode", "filter", "expanded",
                    "dist-evals", "rejects", "hits", "ms"});
  for (const BlockTrace& b : blocks) {
    blk.AddRow({NodeName(b.node), RangeName(b.range),
                FormatFloat(b.overlap_ratio, 3),
                b.used_graph ? "graph" : "exact",
                b.fully_covered ? "none" : "id-range",
                FormatCount(b.stats.nodes_expanded),
                FormatCount(b.stats.distance_evaluations),
                FormatCount(b.stats.pool_rejects), FormatCount(b.hits),
                FormatFloat(b.seconds * 1e3, 3)});
  }
  out += blk.ToString();

  out += "\ntotals: blocks=" + std::to_string(totals.blocks_searched()) +
         " (graph=" + std::to_string(totals.graph_blocks) + ", exact=" +
         std::to_string(totals.exact_blocks) + ")  dist-evals=" +
         std::to_string(totals.search.distance_evaluations) + "  expanded=" +
         std::to_string(totals.search.nodes_expanded) + "  results=" +
         std::to_string(results_returned) + "  time=" +
         FormatFloat(total_seconds * 1e3, 3) + " ms\n";

  if (budget.bounded) {
    out += "budget: completion=" + std::string(CompletionName(
               budget.completion));
    if (budget.degrade_reason != DegradeReason::kNone) {
      out += " (" + std::string(DegradeReasonName(budget.degrade_reason)) +
             ")";
    }
    if (budget.deadline_seconds > 0.0) {
      out += "  deadline=" + FormatFloat(budget.deadline_seconds * 1e3, 3) +
             " ms";
    }
    out += "  spent: dist-evals=" +
           std::to_string(budget.distance_evals_spent);
    if (budget.max_distance_evals != 0) {
      out += "/" + std::to_string(budget.max_distance_evals);
    }
    out += " hops=" + std::to_string(budget.hops_spent);
    if (budget.max_hops != 0) out += "/" + std::to_string(budget.max_hops);
    out += "  blocks-skipped=" + std::to_string(budget.blocks_skipped) + "\n";
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("window");
  w.BeginObject();
  w.Key("start");
  w.Int(window.start);
  w.Key("end");
  w.Int(window.end);
  w.EndObject();

  w.Key("id_range");
  AppendRangeJson(&w, id_range);
  w.Key("tau");
  w.Double(tau);
  w.Key("k");
  w.Uint(params.k);
  w.Key("max_candidates");
  w.Uint(params.max_candidates);
  w.Key("epsilon");
  w.Double(params.epsilon);

  w.Key("selection");
  w.BeginArray();
  for (const SelectionStep& s : selection) {
    w.BeginObject();
    w.Key("node");
    AppendNodeJson(&w, s.node);
    w.Key("ids");
    AppendRangeJson(&w, s.range);
    w.Key("overlap_ratio");
    w.Double(s.overlap_ratio);
    w.Key("decision");
    w.String(SelectionDecisionName(s.decision));
    w.EndObject();
  }
  w.EndArray();

  w.Key("blocks");
  w.BeginArray();
  for (const BlockTrace& b : blocks) {
    w.BeginObject();
    w.Key("node");
    AppendNodeJson(&w, b.node);
    w.Key("ids");
    AppendRangeJson(&w, b.range);
    w.Key("overlap_ratio");
    w.Double(b.overlap_ratio);
    w.Key("mode");
    w.String(b.used_graph ? "graph" : "exact");
    w.Key("fully_covered");
    w.Bool(b.fully_covered);
    w.Key("stats");
    AppendStatsJson(&w, b.stats);
    w.Key("hits");
    w.Uint(b.hits);
    w.Key("seconds");
    w.Double(b.seconds);
    w.EndObject();
  }
  w.EndArray();

  w.Key("budget");
  w.BeginObject();
  w.Key("bounded");
  w.Bool(budget.bounded);
  w.Key("completion");
  w.String(CompletionName(budget.completion));
  w.Key("degrade_reason");
  w.String(DegradeReasonName(budget.degrade_reason));
  w.Key("deadline_seconds");
  w.Double(budget.deadline_seconds);
  w.Key("max_distance_evals");
  w.Uint(budget.max_distance_evals);
  w.Key("max_hops");
  w.Uint(budget.max_hops);
  w.Key("distance_evals_spent");
  w.Uint(budget.distance_evals_spent);
  w.Key("hops_spent");
  w.Uint(budget.hops_spent);
  w.Key("blocks_skipped");
  w.Uint(budget.blocks_skipped);
  w.EndObject();

  w.Key("totals");
  w.BeginObject();
  w.Key("blocks_searched");
  w.Uint(totals.blocks_searched());
  w.Key("graph_blocks");
  w.Uint(totals.graph_blocks);
  w.Key("exact_blocks");
  w.Uint(totals.exact_blocks);
  w.Key("stats");
  AppendStatsJson(&w, totals.search);
  w.Key("results_returned");
  w.Uint(results_returned);
  w.Key("seconds");
  w.Double(total_seconds);
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

}  // namespace mbi::obs
