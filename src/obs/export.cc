#include "obs/export.h"

#include <fstream>

#include "common/table_printer.h"
#include "obs/json_util.h"

namespace eventhit::obs {

namespace {

Status WriteStringToFile(const std::string& contents,
                         const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InternalError("cannot open output file: " + path);
  }
  file << contents;
  if (!file.good()) {
    return InternalError("short write to output file: " + path);
  }
  return OkStatus();
}

}  // namespace

void PrintMetricsTable(const MetricsSnapshot& snapshot, std::ostream& os) {
  if (!snapshot.counters.empty()) {
    TablePrinter table({"Counter", "Value"});
    for (const CounterSnapshot& counter : snapshot.counters) {
      table.AddRow({counter.name, Fmt(counter.value)});
    }
    table.Print(os);
  }
  if (!snapshot.gauges.empty()) {
    if (!snapshot.counters.empty()) os << "\n";
    TablePrinter table({"Gauge", "Value"});
    for (const GaugeSnapshot& gauge : snapshot.gauges) {
      table.AddRow({gauge.name, Fmt(gauge.value, 4)});
    }
    table.Print(os);
  }
  if (!snapshot.histograms.empty()) {
    if (!snapshot.counters.empty() || !snapshot.gauges.empty()) os << "\n";
    TablePrinter table({"Histogram", "Count", "Mean", "P50", "P99", "Min",
                        "Max"});
    for (const HistogramSnapshot& histogram : snapshot.histograms) {
      table.AddRow({histogram.name, Fmt(histogram.count),
                    Fmt(histogram.Mean(), 3),
                    Fmt(histogram.ApproxQuantile(0.5), 3),
                    Fmt(histogram.ApproxQuantile(0.99), 3),
                    Fmt(histogram.min, 3), Fmt(histogram.max, 3)});
    }
    table.Print(os);
  }
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(counter.name) +
            "\":" + std::to_string(counter.value);
  }
  json += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(gauge.name) + "\":" + JsonNumber(gauge.value);
  }
  json += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    if (!first) json += ",";
    first = false;
    json += "\"" + JsonEscape(histogram.name) + "\":{\"bounds\":[";
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) json += ",";
      json += JsonNumber(histogram.bounds[i]);
    }
    json += "],\"bucket_counts\":[";
    for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      if (i > 0) json += ",";
      json += std::to_string(histogram.bucket_counts[i]);
    }
    json += "],\"count\":" + std::to_string(histogram.count) +
            ",\"sum\":" + JsonNumber(histogram.sum) +
            ",\"min\":" + JsonNumber(histogram.min) +
            ",\"max\":" + JsonNumber(histogram.max) + "}";
  }
  json += "}}";
  return json;
}

Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  return WriteStringToFile(MetricsToJson(snapshot), path);
}

Status WriteTraceJson(const TraceBuffer& buffer, const std::string& path) {
  return WriteStringToFile(buffer.ToChromeJson(), path);
}

}  // namespace eventhit::obs
