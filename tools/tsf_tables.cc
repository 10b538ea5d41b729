// tsf_tables — sharded reproduction of the paper's Tables 2-5.
//
// Decomposes the selected tables into one WorkUnit per (set, policy, mode)
// cell, runs the cells on --jobs N threads and reassembles each table in
// canonical order, so the text and JSON output are byte-identical to a
// serial run regardless of thread count.
//
// Usage:
//   tsf_tables [--tables 2,3,4,5] [--jobs N] [--json FILE] [--no-text]
//
//   --tables      comma-separated table ids (default: all four)
//                   2 = Polling Server simulations   3 = PS executions
//                   4 = Deferrable Server simulations 5 = DS executions
//   --jobs N      threads running cells (default 1: every cell on the
//                 main thread)
//   --json FILE   also write the versioned machine-readable document
//                 ("tsf-tables/1"; see README). '-' writes it to stdout.
//   --no-text     suppress the paper-layout text tables
//
// Timing (generation vs run, wall-clock) goes to stderr only — the JSON
// carries exclusively deterministic fields so runs can be diffed with cmp.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/sketch.h"
#include "exp/bench_cli.h"
#include "exp/shard.h"

namespace {

using namespace tsf;

struct TableId {
  int id;
  model::ServerPolicy policy;
  exp::Mode mode;
};

const TableId kTables[] = {
    {2, model::ServerPolicy::kPolling, exp::Mode::kSimulation},
    {3, model::ServerPolicy::kPolling, exp::Mode::kExecution},
    {4, model::ServerPolicy::kDeferrable, exp::Mode::kSimulation},
    {5, model::ServerPolicy::kDeferrable, exp::Mode::kExecution},
};

const TableId* find_table(int id) {
  for (const auto& t : kTables) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

std::string hex_digest(std::uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, d);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> selected = {2, 3, 4, 5};
  exp::BenchCli cli(exp::BenchCli::kJson | exp::BenchCli::kShard);
  bool text = true;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tables") == 0 && i + 1 < argc) {
      selected.clear();
      const std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string token =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (token.size() != 1 || find_table(token[0] - '0') == nullptr) {
          std::cerr << "unknown table '" << token << "' (expected 2-5)\n";
          return 2;
        }
        selected.push_back(token[0] - '0');
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
      if (selected.empty()) {
        std::cerr << "--tables needs at least one table id\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-text") == 0) {
      text = false;
    } else if (!cli.consume(argc, argv, &i)) {
      return cli.fail("tsf_tables", " [--tables 2,3,4,5] [--no-text]");
    }
  }
  const exp::ShardOptions& shard = cli.shard;
  const std::string& json_path = cli.json_path;

  // One flat unit list across every selected table, so the threads
  // balance sim cells (cheap) against exec cells (expensive).
  std::vector<exp::WorkUnit> units;
  for (const int id : selected) {
    const TableId& t = *find_table(id);
    const exp::ExecOptions options = t.mode == exp::Mode::kExecution
                                         ? exp::paper_execution_options()
                                         : exp::ExecOptions{};
    auto table_units = exp::paper_table_units("table" + std::to_string(id),
                                              t.policy, t.mode, options);
    units.insert(units.end(), table_units.begin(), table_units.end());
  }

  const exp::ShardOutcome outcome = exp::run_units(units, shard);
  if (!outcome.ok) {
    std::cerr << "error: " << outcome.error << '\n';
    return 1;
  }

  const auto sets = exp::paper_sets();
  // Provenance from the single source of truth (the set-specific density /
  // std-deviation live on the cells; everything else is table-invariant).
  const gen::GeneratorParams provenance =
      exp::paper_generator_params(sets[0], model::ServerPolicy::kPolling);
  common::JsonWriter json;
  json.begin_object();
  json.key("schema").value("tsf-tables/1");
  json.key("generator").begin_object();
  json.key("seed").value(std::uint64_t{provenance.seed});
  json.key("nb_generation").value(std::uint64_t{provenance.nb_generation});
  json.key("horizon_periods")
      .value(std::int64_t{provenance.horizon_periods});
  json.key("average_cost_tu").value(provenance.average_cost_tu);
  json.key("server_capacity_tu").value(provenance.server_capacity.to_tu());
  json.key("server_period_tu").value(provenance.server_period.to_tu());
  json.end_object();
  json.key("tables").begin_array();

  double gen_seconds = 0.0, run_seconds = 0.0;
  for (std::size_t t = 0; t < selected.size(); ++t) {
    const TableId& table = *find_table(selected[t]);
    exp::PaperTable assembled;
    assembled.title = "Measures on " +
                      std::string(model::to_string(table.policy)) +
                      " server " + exp::to_string(table.mode) + "s";
    json.begin_object();
    json.key("id").value(std::int64_t{table.id});
    json.key("policy").value(model::to_string(table.policy));
    json.key("mode").value(exp::to_string(table.mode));
    json.key("cells").begin_array();
    common::LogSketch pooled;  // exact merge of the per-cell sketches
    for (std::size_t c = 0; c < sets.size(); ++c) {
      const exp::CellResult& cell = outcome.cells[t * sets.size() + c];
      assembled.cells[c] = cell.metrics;
      pooled.merge(cell.metrics.response_sketch);
      gen_seconds += cell.gen_seconds;
      run_seconds += cell.run_seconds;
      json.begin_object();
      json.key("density").value(sets[c].density);
      json.key("std_deviation").value(sets[c].std_deviation);
      json.key("aart").value(cell.metrics.aart);
      json.key("air").value(cell.metrics.air);
      json.key("asr").value(cell.metrics.asr);
      json.key("p50_response_tu").value(cell.metrics.p50_response_tu);
      json.key("p95_response_tu").value(cell.metrics.p95_response_tu);
      json.key("p99_response_tu").value(cell.metrics.p99_response_tu);
      json.key("systems").value(cell.metrics.systems);
      json.key("total_jobs").value(cell.metrics.total_jobs);
      json.key("spec_digest").value(hex_digest(cell.spec_digest));
      json.end_object();
    }
    json.end_array();
    // Table-level response quantiles over every served job of every set,
    // pooled by exact sketch merge — byte-identical for any --jobs N.
    json.key("pooled").begin_object();
    json.key("samples").value(static_cast<std::uint64_t>(pooled.count()));
    json.key("p50_response_tu").value(pooled.p50());
    json.key("p95_response_tu").value(pooled.p95());
    json.key("p99_response_tu").value(pooled.p99());
    json.end_object();
    json.end_object();
    if (text) {
      std::cout << exp::format_paper_table(assembled) << '\n';
    }
  }
  json.end_array();
  json.end_object();

  if (!json_path.empty()) {
    const std::string doc = json.take();
    if (json_path == "-") {
      std::cout << doc;
    } else {
      std::ofstream out(json_path, std::ios::binary);
      if (!out) {
        std::cerr << "error: cannot write '" << json_path << "'\n";
        return 1;
      }
      out << doc;
    }
  }
  std::fprintf(stderr, "tsf_tables: %zu cells, generation %.3fs, runs %.3fs\n",
               units.size(), gen_seconds, run_seconds);
  return 0;
}
