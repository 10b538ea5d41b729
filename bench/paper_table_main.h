// Shared driver for the four table-reproduction benches: enumerates the six
// paper sets under one (policy, mode) pair, runs them through the sharded
// harness (`--jobs N` runs the cells on N threads) and prints
// our table next to the paper's published values.
#pragma once

#include <array>
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "exp/bench_cli.h"
#include "exp/shard.h"

namespace tsf::bench {

struct PaperReference {
  const char* label;
  // AART/AIR/ASR for the six sets in table order:
  // (1,0) (2,0) (3,0) (1,2) (2,2) (3,2).
  std::array<double, 6> aart;
  std::array<double, 6> air;
  std::array<double, 6> asr;
};

inline int run_paper_table_bench(model::ServerPolicy policy,
                                 exp::Mode mode,
                                 const PaperReference& reference,
                                 int argc = 0, char** argv = nullptr) {
  exp::BenchCli cli(exp::BenchCli::kShard);
  for (int i = 1; i < argc; ++i) {
    if (!cli.consume(argc, argv, &i)) {
      return cli.fail(argv != nullptr ? argv[0] : "bench_table");
    }
  }
  const exp::ShardOptions& shard = cli.shard;
  const exp::ExecOptions options = mode == exp::Mode::kExecution
                                       ? exp::paper_execution_options()
                                       : exp::ExecOptions{};
  const exp::PaperTable table =
      exp::run_paper_table(policy, mode, options, shard);

  std::cout << "=== " << reference.label << " ===\n";
  std::cout << "(6 sets x 10 systems, seed 1983, horizon 10 server periods;"
               " capacity 4tu, period 6tu, mean cost 3tu)\n\n";
  std::cout << exp::format_paper_table(table) << '\n';

  common::TextTable cmp;
  cmp.add_row({"set", "AART ours", "AART paper", "AIR ours", "AIR paper",
               "ASR ours", "ASR paper"});
  const auto sets = exp::paper_sets();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof key, "(%g,%g)", sets[i].density,
                  sets[i].std_deviation);
    cmp.add_row({key, common::fmt_fixed(table.cells[i].aart, 2),
                 common::fmt_fixed(reference.aart[i], 2),
                 common::fmt_fixed(table.cells[i].air, 2),
                 common::fmt_fixed(reference.air[i], 2),
                 common::fmt_fixed(table.cells[i].asr, 2),
                 common::fmt_fixed(reference.asr[i], 2)});
  }
  std::cout << "Comparison with the paper's published values:\n"
            << cmp.to_string() << '\n';
  return 0;
}

}  // namespace tsf::bench
