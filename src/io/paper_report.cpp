#include "io/paper_report.hpp"

#include <algorithm>
#include <map>

#include "io/table.hpp"
#include "util/strings.hpp"

namespace rtsm::io {

std::string render_table1(const kpn::Application& app) {
  TablePrinter table({"Process", "PE type", "Input [token]", "Output [token]",
                      "WCET [cc]", "Avg. energy [nJ/symbol]"});
  table.align_right(5);
  for (const ProcessId pid : app.process_ids()) {
    const kpn::Process& p = app.process(pid);
    if (p.is_fixture()) continue;
    for (const kpn::Implementation& im : p.implementations) {
      std::string in;
      for (const kpn::PortSpec& port : im.inputs) {
        if (!in.empty()) in += " ";
        in += format_phase_vector(port.rates);
      }
      std::string out;
      for (const kpn::PortSpec& port : im.outputs) {
        if (!out.empty()) out += " ";
        out += format_phase_vector(port.rates);
      }
      table.add_row({p.name, im.tile_type, in, out,
                     format_phase_vector(im.wcet_cc),
                     format_double(im.energy_nj_per_symbol, 0)});
    }
  }
  return table.to_string();
}

std::string render_table2(const kpn::Application& app,
                          const core::Step2Trace& trace,
                          const std::vector<std::string>& tile_columns) {
  std::vector<std::string> header{"Iter."};
  header.insert(header.end(), tile_columns.begin(), tile_columns.end());
  header.push_back("Cost");
  header.push_back("Remark");
  TablePrinter table(header);

  // Which process occupies each column tile, from a snapshot.
  auto row_cells = [&](const std::vector<std::string>& snapshot) {
    std::map<std::string, std::string> by_tile;
    for (const ProcessId pid : app.process_ids()) {
      if (app.process(pid).is_fixture()) continue;
      by_tile[snapshot[pid.value()]] = app.process(pid).name;
    }
    std::vector<std::string> cells;
    for (const std::string& tile : tile_columns) {
      const auto it = by_tile.find(tile);
      cells.push_back(it == by_tile.end() ? "-" : it->second);
    }
    return cells;
  };

  {
    std::vector<std::string> row{"-"};
    const auto cells = row_cells(trace.initial_assignment);
    row.insert(row.end(), cells.begin(), cells.end());
    row.push_back(format_double(trace.initial_cost, 0));
    row.push_back("Initial (greedy) assignment");
    table.add_row(row);
  }

  // The paper's table logs evaluations up to the last improvement; the
  // trailing all-revert sweep is its stopping check, summarised by the
  // closing "No further choices" row.
  std::size_t last_kept = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if (trace.records[i].kept) last_kept = i + 1;
  }
  for (std::size_t i = 0; i < last_kept; ++i) {
    const core::Step2Record& r = trace.records[i];
    std::vector<std::string> row{std::to_string(i + 1)};
    const auto cells = row_cells(r.assignment);
    row.insert(row.end(), cells.begin(), cells.end());
    row.push_back(format_double(r.cost_after, 0));
    row.push_back(r.kept ? "Improvement, keep (" + r.action + ")"
                         : "No improvement, revert (" + r.action + ")");
    table.add_row(row);
  }

  std::vector<std::string> final_row{"-"};
  for (std::size_t c = 0; c < tile_columns.size(); ++c) final_row.push_back("");
  final_row.push_back("");
  final_row.push_back("No further choices");
  table.add_row(final_row);
  return table.to_string();
}

std::string render_step1(const std::vector<core::Step1Record>& records) {
  TablePrinter table(
      {"#", "Process", "Implementation", "Tile", "Desirability"});
  table.align_right(4);
  std::size_t i = 0;
  for (const core::Step1Record& r : records) {
    table.add_row({std::to_string(++i), r.process, r.implementation, r.tile,
                   r.defaulted ? "default" : format_double(r.desirability, 1)});
  }
  return table.to_string();
}

std::string render_step3(const std::vector<core::Step3Record>& records) {
  TablePrinter table({"#", "Channel", "Demand [tokens/s]", "Routers", "Hops"});
  table.align_right(2);
  table.align_right(4);
  std::size_t i = 0;
  for (const core::Step3Record& r : records) {
    std::string routers;
    for (const std::uint32_t rv : r.routers) {
      if (!routers.empty()) routers += "->";
      routers += 'R';
      routers += std::to_string(rv);
    }
    if (routers.empty()) routers = "(same tile)";
    table.add_row({std::to_string(++i), r.channel,
                   format_double(r.demand_tokens_per_s / 1e6, 1) + "M",
                   routers, std::to_string(r.rr_hops)});
  }
  return table.to_string();
}

}  // namespace rtsm::io
