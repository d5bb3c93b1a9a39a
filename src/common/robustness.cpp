#include "common/robustness.hpp"

#include <ostream>

#include "common/table_printer.hpp"

namespace mfpa {

void IngestStats::note(std::string diagnostic, std::size_t cap) {
  if (diagnostics.size() < cap) diagnostics.push_back(std::move(diagnostic));
}

void IngestStats::merge(const IngestStats& other, std::size_t diag_cap) {
  rows_read += other.rows_read;
  rows_repaired += other.rows_repaired;
  rows_dropped += other.rows_dropped;
  short_rows += other.short_rows;
  bad_cells += other.bad_cells;
  firmware_repairs += other.firmware_repairs;
  duplicate_days += other.duplicate_days;
  clock_rollbacks += other.clock_rollbacks;
  counter_resets_rebased += other.counter_resets_rebased;
  values_repaired += other.values_repaired;
  duplicate_drives += other.duplicate_drives;
  drives_quarantined += other.drives_quarantined;
  tickets_dropped += other.tickets_dropped;
  for (const auto& d : other.diagnostics) note(d, diag_cap);
}

std::size_t IngestStats::faults_total() const noexcept {
  return short_rows + bad_cells + firmware_repairs + duplicate_days +
         clock_rollbacks + counter_resets_rebased + values_repaired +
         duplicate_drives + drives_quarantined + tickets_dropped;
}

std::vector<std::pair<std::string, std::size_t>> IngestStats::counter_rows()
    const {
  std::vector<std::pair<std::string, std::size_t>> rows;
  const auto add = [&rows](const char* label, std::size_t count) {
    if (count > 0) rows.emplace_back(label, count);
  };
  add("short rows (truncated / dropped column)", short_rows);
  add("unparsable cells", bad_cells);
  add("malformed firmware strings", firmware_repairs);
  add("duplicate days", duplicate_days);
  add("clock rollbacks", clock_rollbacks);
  add("counter resets re-based", counter_resets_rebased);
  add("NaN / negative / saturated fields", values_repaired);
  add("duplicate drive ids", duplicate_drives);
  add("drives quarantined", drives_quarantined);
  add("tickets dropped", tickets_dropped);
  return rows;
}

std::string IngestStats::summary() const {
  std::string out = "rows " + std::to_string(rows_read) + " (repaired " +
                    std::to_string(rows_repaired) + ", dropped " +
                    std::to_string(rows_dropped) + "), faults " +
                    std::to_string(faults_total());
  if (drives_quarantined > 0) {
    out += ", quarantined drives " + std::to_string(drives_quarantined);
  }
  return out;
}

void IngestStats::encode(std::string& buf) const {
  for (const std::size_t v :
       {rows_read, rows_repaired, rows_dropped, short_rows, bad_cells,
        firmware_repairs, duplicate_days, clock_rollbacks,
        counter_resets_rebased, values_repaired, duplicate_drives,
        drives_quarantined, tickets_dropped}) {
    wire::put_u64(buf, v);
  }
  wire::put_u64(buf, diagnostics.size());
  for (const auto& d : diagnostics) wire::put_str(buf, d);
}

void IngestStats::decode(wire::ByteReader& r) {
  for (std::size_t* v :
       {&rows_read, &rows_repaired, &rows_dropped, &short_rows, &bad_cells,
        &firmware_repairs, &duplicate_days, &clock_rollbacks,
        &counter_resets_rebased, &values_repaired, &duplicate_drives,
        &drives_quarantined, &tickets_dropped}) {
    *v = r.u64();
  }
  // Each diagnostic takes at least its u32 length prefix.
  const std::uint64_t n = r.count(4);
  diagnostics.clear();
  diagnostics.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) diagnostics.emplace_back(r.str());
}

void print_ingest_stats(const IngestStats& stats, std::ostream& os) {
  os << "ingest: " << stats.summary() << "\n";
  const auto rows = stats.counter_rows();
  if (!rows.empty()) {
    TablePrinter table({"fault", "count"});
    for (const auto& [label, count] : rows) {
      table.add_row({label, std::to_string(count)});
    }
    table.print(os);
  }
  if (!stats.diagnostics.empty()) {
    os << "sample diagnostics:\n";
    for (const auto& d : stats.diagnostics) os << "  " << d << "\n";
  }
}

}  // namespace mfpa
