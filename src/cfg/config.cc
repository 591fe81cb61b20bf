#include "cfg/config.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/text.h"

namespace rdsim::cfg {

std::string format_diagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const Diagnostic& d : diags) {
    if (d.line > 0) out << "line " << d.line << ": ";
    if (!d.key.empty()) out << "key '" << d.key << "': ";
    out << d.message << "\n";
  }
  return out.str();
}

Config Config::parse(const std::string& source,
                     std::vector<Diagnostic>* diags) {
  Config config;
  std::string section;
  int line_no = 0;
  for (std::size_t pos = 0; pos < source.size();) {
    const std::size_t nl = std::min(source.find('\n', pos), source.size());
    std::string_view line(source.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    // Comments run to end of line, whether the line starts with one or a
    // key-value pair precedes it; no value in the schema contains # or ;.
    line = text::trim(line.substr(0, line.find_first_of("#;")));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        diags->push_back({line_no, "", "malformed section header"});
        continue;
      }
      section = text::trim(line.substr(1, line.size() - 2));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      diags->push_back(
          {line_no, "", "expected 'key = value' or '[section]'"});
      continue;
    }
    const std::string_view name = text::trim(line.substr(0, eq));
    if (name.empty()) {
      diags->push_back({line_no, "", "empty key before '='"});
      continue;
    }
    Entry entry;
    entry.key = section.empty() ? std::string(name)
                                : section + "." + std::string(name);
    entry.value = text::trim(line.substr(eq + 1));
    entry.line = line_no;
    for (const Entry& prev : config.entries_) {
      if (prev.key == entry.key) {
        std::ostringstream msg;
        msg << "duplicate key (previously set on line " << prev.line
            << "; the later value wins)";
        diags->push_back({line_no, entry.key, msg.str()});
        break;
      }
    }
    config.entries_.push_back(std::move(entry));
  }
  return config;
}

Config Config::parse_file(const std::string& path,
                          std::vector<Diagnostic>* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    diags->push_back({0, "", "cannot open config file '" + path + "'"});
    return Config{};
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), diags);
}

Config::Entry* Config::find(const std::string& key) {
  Entry* found = nullptr;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.consumed = true;  // Shadowed duplicates are known keys too.
      found = &e;
    }
  }
  return found;
}

bool Config::has(const std::string& key) const {
  for (const Entry& e : entries_)
    if (e.key == key) return true;
  return false;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback,
                               std::vector<Diagnostic>* diags) {
  (void)diags;  // Any text is a valid string.
  const Entry* e = find(key);
  return e != nullptr ? e->value : fallback;
}

std::uint64_t Config::get_u64(const std::string& key, std::uint64_t fallback,
                              std::vector<Diagnostic>* diags) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  std::uint64_t v = 0;
  if (!text::parse_u64(e->value, &v)) {
    diags->push_back({e->line, key,
                      "expected a non-negative decimal integer, got '" +
                          e->value + "'"});
    return fallback;
  }
  return v;
}

double Config::get_double(const std::string& key, double fallback,
                          std::vector<Diagnostic>* diags) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  double v = 0.0;
  if (!text::parse_f64(e->value, &v)) {
    diags->push_back({e->line, key,
                      "expected a finite decimal number, got '" + e->value +
                          "'"});
    return fallback;
  }
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback,
                      std::vector<Diagnostic>* diags) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  const std::string& v = e->value;
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  diags->push_back(
      {e->line, key, "expected true/false, got '" + v + "'"});
  return fallback;
}

void Config::report_unknown(std::vector<Diagnostic>* diags) const {
  for (const Entry& e : entries_)
    if (!e.consumed) diags->push_back({e.line, e.key, "unknown key"});
}

std::vector<std::pair<std::string, std::string>> Config::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.emplace_back(e.key, e.value);
  return out;
}

}  // namespace rdsim::cfg
