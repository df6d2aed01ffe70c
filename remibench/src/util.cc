#include "util.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace remibench {

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the ')').
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12 || i == 13) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

remi::JsonValue Metrics::ToJson() const {
  remi::JsonValue out = remi::JsonValue::Object();
  for (const auto& [name, entry] : entries_) {
    remi::JsonValue m = remi::JsonValue::Object();
    m.Set("value", remi::JsonValue::Number(entry.first));
    m.Set("unit", remi::JsonValue::String(entry.second));
    out.Set(name, std::move(m));
  }
  return out;
}

double FindJsonNumber(std::string_view doc, std::string_view key,
                      double fallback) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = doc.find(needle);
  if (at == std::string_view::npos) return fallback;
  const size_t begin = at + needle.size();
  size_t end = begin;
  while (end < doc.size() &&
         std::strchr("0123456789+-.eE", doc[end]) != nullptr) {
    ++end;
  }
  if (end == begin) return fallback;
  return std::strtod(std::string(doc.substr(begin, end - begin)).c_str(),
                     nullptr);
}

std::string_view FindStatus(std::string_view doc) {
  constexpr std::string_view kNeedle = "\"status\":\"";
  const size_t at = doc.find(kNeedle);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + kNeedle.size();
  const size_t end = doc.find('"', begin);
  if (end == std::string_view::npos) return {};
  return doc.substr(begin, end - begin);
}

std::string WithoutMembers(std::string_view doc,
                           const std::vector<std::string>& keys) {
  auto parsed = remi::ParseJson(doc);
  if (!parsed.ok() || !parsed->is_object()) return std::string(doc);
  remi::JsonValue out = remi::JsonValue::Object();
  for (const auto& [name, value] : parsed->members()) {
    if (std::find(keys.begin(), keys.end(), name) != keys.end()) continue;
    out.Set(name, value);
  }
  return out.Dump();
}

}  // namespace remibench
