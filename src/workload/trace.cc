#include "workload/trace.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "sql/parser.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

// Strips leading/trailing whitespace.
std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Splits a meta-operation argument string into tokens, keeping
// single-quoted strings (no escapes) together.
StatusOr<std::vector<std::string>> TokenizeMetaArgs(const std::string& args) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < args.size()) {
    if (std::isspace(static_cast<unsigned char>(args[i]))) {
      ++i;
      continue;
    }
    if (args[i] == '\'') {
      size_t close = args.find('\'', i + 1);
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated string literal in '" +
                                       args + "'");
      }
      tokens.push_back(args.substr(i, close - i + 1));
      i = close + 1;
      continue;
    }
    size_t end = i;
    while (end < args.size() &&
           !std::isspace(static_cast<unsigned char>(args[end]))) {
      ++end;
    }
    tokens.push_back(args.substr(i, end - i));
    i = end;
  }
  return tokens;
}

// SQL-style literal: 'string', integer, or decimal.
StatusOr<Value> ParseLiteralToken(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty literal");
  if (token.front() == '\'') {
    if (token.size() < 2 || token.back() != '\'') {
      return Status::InvalidArgument("malformed string literal " + token);
    }
    return Value(token.substr(1, token.size() - 2));
  }
  if (token == "NULL") return Value();
  char* end = nullptr;
  if (token.find('.') == std::string::npos &&
      token.find('e') == std::string::npos) {
    long long as_int = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0') {
      return Value(static_cast<int64_t>(as_int));
    }
  }
  double as_double = std::strtod(token.c_str(), &end);
  if (end != token.c_str() && *end == '\0') return Value(as_double);
  return Status::InvalidArgument("malformed literal '" + token + "'");
}

}  // namespace

Status TraceReplayer::ExecuteSql(const std::string& sql,
                                 TraceReport* report) {
  ASSIGN_OR_RETURN(ParsedStatement statement, ParseStatement(sql, *db_));
  Stopwatch watch;
  switch (statement.kind) {
    case ParsedStatement::Kind::kSelect: {
      Transaction txn = db_->Begin();
      ASSIGN_OR_RETURN(AggregateResult result,
                       cache_->Execute(statement.select, txn, options_));
      report->last_query_groups = result.num_groups();
      report->query_ms += watch.ElapsedMillis();
      ++report->queries;
      break;
    }
    case ParsedStatement::Kind::kExplain: {
      // Replay still executes the query (same cache effects as a SELECT);
      // the trace itself has no consumer here and is dropped.
      QueryTrace trace;
      trace.statement = sql;
      ExecutionOptions options = options_;
      options.trace = &trace;
      Transaction txn = db_->Begin();
      ASSIGN_OR_RETURN(AggregateResult result,
                       cache_->Execute(statement.select, txn, options));
      report->last_query_groups = result.num_groups();
      report->query_ms += watch.ElapsedMillis();
      ++report->queries;
      break;
    }
    case ParsedStatement::Kind::kInsert: {
      Status status;
      if (scope_.has_value()) {
        // Inside !atomic begin .. end every insert runs under the one
        // scoped transaction, so a crash mid-scope must roll them all back.
        ASSIGN_OR_RETURN(Table * table, db_->GetTable(statement.insert_table));
        status = table->Insert(*scope_, statement.insert_values);
      } else {
        status = ApplyStatement(statement, db_);
      }
      if (!status.ok()) {
        // An insert swallowed by an armed WAL crash point (wal.append,
        // wal.append.torn) is the scenario under test; the row is lost to
        // the log and the trace's next ops are !crash + !recover.
        if (!FaultInjector::IsInjectedFault(status)) return status;
        ++report->faulted_ops;
      }
      report->insert_ms += watch.ElapsedMillis();
      ++report->inserts;
      break;
    }
    case ParsedStatement::Kind::kCreateTable:
      RETURN_IF_ERROR(ApplyStatement(statement, db_));
      ++report->ddl;
      break;
  }
  ++report->statements;
  return Status::Ok();
}

Status TraceReplayer::ExecuteMerge(const std::string& args,
                                   TraceReport* report) {
  Stopwatch watch;
  Status status;
  if (Trim(args).empty()) {
    status = db_->MergeAll();
  } else {
    std::istringstream stream(args);
    std::vector<std::string> tables;
    std::string name;
    while (stream >> name) tables.push_back(name);
    status = db_->MergeTables(tables);
  }
  if (!status.ok()) {
    // Fuzzer traces carry fault schedules; a merge aborted by an armed
    // injection point is the scenario under test, not a broken trace.
    if (!FaultInjector::IsInjectedFault(status)) return status;
    ++report->faulted_merges;
  }
  report->merge_ms += watch.ElapsedMillis();
  ++report->merges;
  return Status::Ok();
}

Status TraceReplayer::ExecuteMeta(const std::string& line,
                                  TraceReport* report) {
  size_t space = line.find_first_of(" \t");
  std::string op = line.substr(0, space);
  std::string args = space == std::string::npos ? "" : line.substr(space + 1);
  if (op == "!merge") return ExecuteMerge(args, report);
  if (op == "!clearcache") {
    cache_->Clear();
    return Status::Ok();
  }
  if (op == "!atomic") {
    std::string which = Trim(args);
    if (which == "begin") {
      if (scope_.has_value()) {
        return Status::FailedPrecondition("atomic scope already open");
      }
      scope_.emplace(db_->BeginAtomic());
      return Status::Ok();
    }
    if (which == "end") {
      if (!scope_.has_value()) {
        return Status::FailedPrecondition("no atomic scope open");
      }
      scope_.reset();  // Destructor commits the scope (and logs it).
      return Status::Ok();
    }
    return Status::InvalidArgument("!atomic expects 'begin' or 'end'");
  }
  if (op == "!checkpoint" || op == "!crash" || op == "!recover") {
    if (host_ == nullptr) {
      return Status::FailedPrecondition(op +
                                        " requires an engine host (see "
                                        "TraceReplayer::SetEngineHost)");
    }
    if (op == "!checkpoint") {
      Status status = host_->Checkpoint();
      if (!status.ok()) {
        // A checkpoint aborted by an armed crash point (checkpoint.write,
        // checkpoint.publish, checkpoint.truncate) is an expected outcome;
        // recovery falls back to the previous generation.
        if (!FaultInjector::IsInjectedFault(status)) return status;
        ++report->faulted_ops;
      }
      ++report->checkpoints;
      return Status::Ok();
    }
    if (op == "!crash") {
      // Poison the log first, then drop the open scope: its destructor's
      // commit record can no longer reach disk, which is exactly what a
      // kill mid-scope looks like — recovery must roll the scope back.
      RETURN_IF_ERROR(host_->Crash());
      scope_.reset();
      ++report->crashes;
      return Status::Ok();
    }
    if (scope_.has_value()) {
      return Status::FailedPrecondition("!recover with an open scope");
    }
    RETURN_IF_ERROR(host_->Recover());
    ++report->recoveries;
    return Status::Ok();
  }
  if (op == "!fault") {
    return FaultInjector::Global().ArmFromSpec(Trim(args));
  }
  if (op == "!faultseed") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    if (tokens.size() != 1) {
      return Status::InvalidArgument("!faultseed expects one integer");
    }
    ASSIGN_OR_RETURN(Value seed, ParseLiteralToken(tokens[0]));
    if (!seed.is_int64()) {
      return Status::InvalidArgument("!faultseed expects one integer");
    }
    FaultInjector::Global().Reseed(static_cast<uint64_t>(seed.AsInt64()));
    return Status::Ok();
  }
  if (op == "!flightdump") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    size_t max_events = 4096;
    if (tokens.size() > 1) {
      return Status::InvalidArgument("!flightdump expects at most one count");
    }
    if (tokens.size() == 1) {
      ASSIGN_OR_RETURN(Value count, ParseLiteralToken(tokens[0]));
      if (!count.is_int64() || count.AsInt64() <= 0) {
        return Status::InvalidArgument("!flightdump expects a positive count");
      }
      max_events = static_cast<size_t>(count.AsInt64());
    }
    FlightRecorder::Global().DumpToStderr(max_events);
    return Status::Ok();
  }
  if (op == "!spandump") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    size_t max_spans = 8192;
    if (tokens.size() > 1) {
      return Status::InvalidArgument("!spandump expects at most one count");
    }
    if (tokens.size() == 1) {
      ASSIGN_OR_RETURN(Value count, ParseLiteralToken(tokens[0]));
      if (!count.is_int64() || count.AsInt64() <= 0) {
        return Status::InvalidArgument("!spandump expects a positive count");
      }
      max_spans = static_cast<size_t>(count.AsInt64());
    }
    SpanRecorder::Global().DumpToStderr(max_spans);
    return Status::Ok();
  }
  if (op == "!aging") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    if (tokens.empty()) {
      return Status::InvalidArgument("!aging expects table names");
    }
    for (const std::string& name : tokens) {
      RETURN_IF_ERROR(db_->GetTable(name).status());
    }
    db_->RegisterAgingGroup(tokens);
    return Status::Ok();
  }
  if (op == "!split") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    if (tokens.size() != 3) {
      return Status::InvalidArgument("!split expects <table> <column> <value>");
    }
    ASSIGN_OR_RETURN(Table * table, db_->GetTable(tokens[0]));
    ASSIGN_OR_RETURN(Value cold_below, ParseLiteralToken(tokens[2]));
    RETURN_IF_ERROR(table->SplitHotCold(tokens[1], cold_below));
    ++report->splits;
    return Status::Ok();
  }
  if (op == "!update" || op == "!delete") {
    ASSIGN_OR_RETURN(std::vector<std::string> tokens, TokenizeMetaArgs(args));
    if (tokens.size() < 2) {
      return Status::InvalidArgument(op + " expects <table> <pk> ...");
    }
    ASSIGN_OR_RETURN(Table * table, db_->GetTable(tokens[0]));
    ASSIGN_OR_RETURN(Value pk, ParseLiteralToken(tokens[1]));
    Transaction txn = db_->Begin();
    if (op == "!delete") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("!delete expects <table> <pk>");
      }
      RETURN_IF_ERROR(table->DeleteByPk(txn, pk));
      ++report->deletes;
      return Status::Ok();
    }
    std::vector<Value> values;
    for (size_t i = 2; i < tokens.size(); ++i) {
      ASSIGN_OR_RETURN(Value v, ParseLiteralToken(tokens[i]));
      values.push_back(std::move(v));
    }
    RETURN_IF_ERROR(table->UpdateByPk(txn, pk, values));
    ++report->updates;
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown meta operation '" + line + "'");
}

StatusOr<TraceReport> TraceReplayer::Replay(std::istream& trace) {
  TraceReport report;
  Stopwatch total;
  std::string line;
  std::string statement;
  size_t line_number = 0;
  while (std::getline(trace, line)) {
    ++line_number;
    std::string trimmed = Trim(line);
    if (statement.empty()) {
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed[0] == '!') {
        Status status = ExecuteMeta(trimmed, &report);
        if (!status.ok()) {
          return Status(status.code(),
                        StrFormat("trace line %zu: %s", line_number,
                                  status.message().c_str()));
        }
        continue;
      }
    }
    statement += line + "\n";
    if (trimmed.find(';') != std::string::npos) {
      Status status = ExecuteSql(statement, &report);
      if (!status.ok()) {
        return Status(status.code(),
                      StrFormat("trace line %zu: %s", line_number,
                                status.message().c_str()));
      }
      statement.clear();
    }
  }
  if (!Trim(statement).empty()) {
    return Status::InvalidArgument(
        "trace ends mid-statement (missing ';')");
  }
  report.total_ms = total.ElapsedMillis();
  return report;
}

StatusOr<TraceReport> TraceReplayer::ReplayString(const std::string& trace) {
  std::istringstream stream(trace);
  return Replay(stream);
}

}  // namespace aggcache
