// tsf_lint — static analyzer for the TSF_* real-time-safety contracts.
//
//   tsf_lint --root src --allowlist tools/tsf_lint.allow
//   tsf_lint --compile-commands build/compile_commands.json
//   tsf_lint file.cc [file2.h ...] [--report findings.json]
//
// Exit code 0 when no findings, 1 on findings, 2 on usage/IO errors.
// The JSON report (tsf-lint/1) lists every finding and every
// TSF_LINT_ALLOW suppression (with its justification and whether it was
// exercised), so reviewed exceptions stay auditable.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "tsf_lint/analyzer.h"
#include "tsf_lint/lexer.h"

namespace {

namespace fs = std::filesystem;
using tsf::lint::Analyzer;
using tsf::lint::Finding;

bool has_cpp_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int usage() {
  std::cerr << "usage: tsf_lint [--root DIR]... [--compile-commands FILE]\n"
               "                [--allowlist FILE] [--report FILE] "
               "[files...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::vector<std::string> explicit_files;
  std::string compile_commands;
  std::string allowlist_path;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usage();
      roots.push_back(v);
    } else if (arg == "--compile-commands") {
      const char* v = next();
      if (v == nullptr) return usage();
      compile_commands = v;
    } else if (arg == "--allowlist") {
      const char* v = next();
      if (v == nullptr) return usage();
      allowlist_path = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return usage();
      report_path = v;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tsf_lint: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      explicit_files.push_back(arg);
    }
  }

  // Gather the file set, deduped and sorted for deterministic output.
  std::set<std::string> files(explicit_files.begin(), explicit_files.end());
  for (const std::string& root : roots) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file() && has_cpp_extension(it->path())) {
        files.insert(it->path().generic_string());
      }
    }
    if (ec) {
      std::cerr << "tsf_lint: cannot walk '" << root << "': " << ec.message()
                << "\n";
      return 2;
    }
  }
  if (!compile_commands.empty()) {
    std::string text, error;
    if (!read_file(compile_commands, &text)) {
      std::cerr << "tsf_lint: cannot read " << compile_commands << "\n";
      return 2;
    }
    tsf::common::JsonValue doc;
    if (!tsf::common::json_parse(text, &doc, &error) || !doc.is_array()) {
      std::cerr << "tsf_lint: bad compile_commands.json: " << error << "\n";
      return 2;
    }
    for (const tsf::common::JsonValue& entry : doc.as_array()) {
      const tsf::common::JsonValue* file = entry.find("file");
      if (file != nullptr && file->is_string() &&
          has_cpp_extension(fs::path(file->as_string()))) {
        files.insert(file->as_string());
      }
    }
  }
  if (files.empty()) {
    std::cerr << "tsf_lint: no input files\n";
    return usage();
  }

  Analyzer analyzer;
  for (const std::string& path : files) {
    std::string source;
    if (!read_file(path, &source)) {
      std::cerr << "tsf_lint: cannot read " << path << "\n";
      return 2;
    }
    analyzer.add_file(tsf::lint::lex(path, source));
  }

  if (!allowlist_path.empty()) {
    std::string text, error;
    if (!read_file(allowlist_path, &text)) {
      std::cerr << "tsf_lint: cannot read " << allowlist_path << "\n";
      return 2;
    }
    std::vector<tsf::lint::AllowEdge> allow;
    if (!tsf::lint::parse_allowlist(text, &allow, &error)) {
      std::cerr << "tsf_lint: " << error << "\n";
      return 2;
    }
    analyzer.set_allowlist(allowlist_path, std::move(allow));
  }

  const std::vector<Finding> findings = analyzer.run();
  for (const Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message;
    if (!f.function.empty()) std::cerr << " (contract: " << f.function << ")";
    std::cerr << "\n";
  }

  std::size_t suppression_count = 0;
  for (const auto& file : analyzer.files()) {
    suppression_count += file.suppressions.size();
  }
  std::cout << "tsf_lint: " << findings.size() << " finding(s) over "
            << analyzer.files().size() << " file(s), "
            << analyzer.functions().size() << " function(s), "
            << analyzer.annotated_count() << " annotated, "
            << suppression_count << " suppression(s)\n";

  if (!report_path.empty()) {
    tsf::common::JsonWriter w;
    w.begin_object();
    w.key("schema").value("tsf-lint/1");
    w.key("files").value(static_cast<std::uint64_t>(analyzer.files().size()));
    w.key("functions")
        .value(static_cast<std::uint64_t>(analyzer.functions().size()));
    w.key("annotated")
        .value(static_cast<std::uint64_t>(analyzer.annotated_count()));
    w.key("findings").begin_array();
    for (const Finding& f : findings) {
      w.begin_object();
      w.key("file").value(f.file);
      w.key("line").value(static_cast<std::int64_t>(f.line));
      w.key("rule").value(f.rule);
      w.key("function").value(f.function);
      w.key("message").value(f.message);
      w.end_object();
    }
    w.end_array();
    w.key("suppressions").begin_array();
    for (const auto& file : analyzer.files()) {
      for (const auto& s : file.suppressions) {
        w.begin_object();
        w.key("file").value(file.path);
        w.key("line").value(static_cast<std::int64_t>(s.line));
        w.key("rule").value(s.rule);
        w.key("justification").value(s.justification);
        w.key("used").value(s.used);
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
    std::ofstream out(report_path, std::ios::binary);
    if (!out) {
      std::cerr << "tsf_lint: cannot write " << report_path << "\n";
      return 2;
    }
    out << w.take();
  }

  return findings.empty() ? 0 : 1;
}
