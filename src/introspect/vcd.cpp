#include "introspect/vcd.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace csfma {

VcdWriter::VcdWriter(std::string timescale)
    : timescale_(std::move(timescale)) {}

int VcdWriter::declare(const std::string& name, int width) {
  CSFMA_CHECK(!name.empty());
  CSFMA_CHECK(width >= 1);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    CSFMA_CHECK_MSG(signals_[(std::size_t)it->second].width == width,
                    "VCD signal redeclared with a different width");
    return it->second;
  }
  const int id = (int)signals_.size();
  Signal s;
  s.name = name;
  s.width = width;
  signals_.push_back(std::move(s));
  by_name_.emplace(name, id);
  return id;
}

void VcdWriter::change(int signal, const std::uint64_t* words,
                       std::size_t nwords) {
  CSFMA_CHECK(signal >= 0 && (std::size_t)signal < signals_.size());
  Signal& s = signals_[(std::size_t)signal];
  const std::size_t need = (std::size_t)((s.width + 63) / 64);
  std::vector<std::uint64_t> v(need, 0);
  for (std::size_t i = 0; i < need && i < nwords; ++i) v[i] = words[i];
  // Mask the top word to the declared width (hardware truncation).
  if (s.width % 64 != 0) {
    v[need - 1] &= (~std::uint64_t{0}) >> (64 - s.width % 64);
  }
  if (s.has_value && s.last == v) return;  // dedupe unchanged values
  s.last = v;
  s.has_value = true;
  changes_.push_back({time_, signal, std::move(v)});
}

void VcdWriter::advance_to(std::uint64_t time) {
  CSFMA_CHECK_MSG(time >= time_, "VCD time must be monotone");
  time_ = time;
}

void VcdWriter::comment(const std::string& text) {
  CSFMA_CHECK(text.find("$end") == std::string::npos);
  comments_.push_back(text);
}

std::string VcdWriter::id_code(int index) {
  // Printable ASCII 33..126, base 94, most significant digit first.
  std::string code;
  int i = index;
  do {
    code.insert(code.begin(), (char)(33 + i % 94));
    i /= 94;
  } while (i > 0);
  return code;
}

std::string VcdWriter::binary_token(const std::vector<std::uint64_t>& words,
                                    int width) {
  std::string bits;
  bits.reserve((std::size_t)width);
  bool seen_one = false;
  for (int pos = width - 1; pos >= 0; --pos) {
    const bool b = (words[(std::size_t)pos / 64] >> (pos % 64)) & 1u;
    if (b) seen_one = true;
    if (seen_one || pos == 0) bits += b ? '1' : '0';  // strip leading zeros
  }
  return "b" + bits;
}

std::string VcdWriter::render() const {
  std::string out;
  out += "$timescale " + timescale_ + " $end\n";
  out += "$comment csfma signal-level introspection $end\n";
  for (const auto& c : comments_) out += "$comment " + c + " $end\n";

  // Scope tree from the dotted names, sorted: sorting the full names groups
  // each scope's children contiguously, so one pass with a scope stack
  // emits properly nested $scope/$upscope blocks.
  std::vector<int> order((std::size_t)signals_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = (int)i;
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return signals_[(std::size_t)a].name < signals_[(std::size_t)b].name;
  });
  std::vector<std::string> stack;
  for (int id : order) {
    const Signal& s = signals_[(std::size_t)id];
    std::vector<std::string> path;
    std::size_t from = 0;
    for (std::size_t dot = s.name.find('.'); dot != std::string::npos;
         dot = s.name.find('.', from)) {
      path.push_back(s.name.substr(from, dot - from));
      from = dot + 1;
    }
    const std::string leaf = s.name.substr(from);
    std::size_t common = 0;
    while (common < stack.size() && common < path.size() &&
           stack[common] == path[common]) {
      ++common;
    }
    while (stack.size() > common) {
      out += "$upscope $end\n";
      stack.pop_back();
    }
    while (stack.size() < path.size()) {
      out += "$scope module " + path[stack.size()] + " $end\n";
      stack.push_back(path[stack.size()]);
    }
    out += "$var wire " + std::to_string(s.width) + " " + id_code(id) + " " +
           leaf;
    if (s.width > 1) {
      out += " [" + std::to_string(s.width - 1) + ":0]";
    }
    out += " $end\n";
  }
  while (!stack.empty()) {
    out += "$upscope $end\n";
    stack.pop_back();
  }
  out += "$enddefinitions $end\n";

  // Initial values: every signal starts unknown.
  out += "$dumpvars\n";
  for (int id : order) {
    const Signal& s = signals_[(std::size_t)id];
    out += (s.width > 1 ? "bx " : "x") + id_code(id) + "\n";
  }
  out += "$end\n";

  std::uint64_t cur = ~std::uint64_t{0};
  for (const auto& c : changes_) {
    if (c.time != cur) {
      out += '#';
      out += std::to_string(c.time);
      out += '\n';
      cur = c.time;
    }
    const Signal& s = signals_[(std::size_t)c.signal];
    if (s.width > 1) {
      out += binary_token(c.words, s.width) + " " + id_code(c.signal) + "\n";
    } else {
      out += (c.words[0] & 1u) ? '1' : '0';
      out += id_code(c.signal);
      out += '\n';
    }
  }
  // Close the waveform one tick after the last change so viewers show the
  // final values with non-zero extent.
  out += "#" + std::to_string(time_ + 1) + "\n";
  return out;
}

void VcdWriter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CSFMA_CHECK_MSG(f != nullptr, "cannot open VCD output file");
  const std::string text = render();
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  CSFMA_CHECK_MSG(n == text.size() && rc == 0, "VCD write failed");
}

}  // namespace csfma
