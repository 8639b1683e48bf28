// Artifact pins: tests that check a run against bytes captured from an
// earlier build compare pin_of() strings, each an artifact's length and
// FNV-1a 64 digest, so equal pins stand for equal bytes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sorn::pins {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline std::string pin_of(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", text.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

// The pin of lines written one per line, as a JSONL file holds them.
inline std::string pin_of(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return pin_of(text);
}

}  // namespace sorn::pins
