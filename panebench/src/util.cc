#include "util.h"

#include <algorithm>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <fstream>

namespace panebench {

double NearestRank(std::vector<double>* values, double p) {
  if (values->empty()) return std::nan("");
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values->size()));
  return (*values)[static_cast<size_t>(rank - 1)];
}

OpenLoopTiming AccountOpenLoop(const std::vector<int64_t>& scheduled_ns,
                               const std::vector<int64_t>& sent_ns,
                               const std::vector<int64_t>& received_ns) {
  OpenLoopTiming t;
  for (size_t i = 0; i < scheduled_ns.size(); ++i) {
    if (sent_ns[i] >= 0) {
      t.late_ms.push_back(
          static_cast<double>(std::max<int64_t>(0, sent_ns[i] -
                                                       scheduled_ns[i])) *
          1e-6);
    }
    if (received_ns[i] < 0) {
      ++t.unanswered;
      continue;
    }
    t.latency_ms.push_back(
        static_cast<double>(received_ns[i] - scheduled_ns[i]) * 1e-6);
  }
  return t;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": ";
}

void JsonObject::Add(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}

void JsonObject::Add(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
}

void JsonObject::AddRaw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

namespace {

constexpr char kRawMagic[8] = {'P', 'B', 'R', 'A', 'W', '0', '0', '1'};

template <typename T>
void Put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool Get(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

void PutPairs(std::ofstream& out,
              const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  Put(out, static_cast<int64_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    Put(out, a);
    Put(out, b);
  }
}

bool GetPairs(std::ifstream& in,
              std::vector<std::pair<int64_t, int64_t>>* pairs) {
  int64_t count = 0;
  if (!Get(in, &count) || count < 0 || count > (int64_t{1} << 32)) {
    return false;
  }
  pairs->resize(static_cast<size_t>(count));
  for (auto& [a, b] : *pairs) {
    if (!Get(in, &a) || !Get(in, &b)) return false;
  }
  return true;
}

}  // namespace

bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

bool WriteFactors(const Factors& f, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(kRawMagic, sizeof(kRawMagic));
  Put(out, f.n);
  Put(out, f.d);
  Put(out, f.h);
  for (const std::vector<double>* m : {&f.xf, &f.xb, &f.y}) {
    out.write(reinterpret_cast<const char*>(m->data()),
              static_cast<std::streamsize>(m->size() * sizeof(double)));
  }
  out.close();
  return static_cast<bool>(out) && SyncFile(path);
}

bool ReadFactors(const std::string& path, Factors* f) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kRawMagic, sizeof(magic)) != 0) return false;
  if (!Get(in, &f->n) || !Get(in, &f->d) || !Get(in, &f->h)) return false;
  if (f->n <= 0 || f->d <= 0 || f->h <= 0 || f->n > (int64_t{1} << 31) ||
      f->d > (int64_t{1} << 31) || f->h > 4096) {
    return false;
  }
  f->xf.resize(static_cast<size_t>(f->n * f->h));
  f->xb.resize(static_cast<size_t>(f->n * f->h));
  f->y.resize(static_cast<size_t>(f->d * f->h));
  for (std::vector<double>* m : {&f->xf, &f->xb, &f->y}) {
    in.read(reinterpret_cast<char*>(m->data()),
            static_cast<std::streamsize>(m->size() * sizeof(double)));
  }
  return static_cast<bool>(in);
}

bool WriteHoldout(const Holdout& h, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  PutPairs(out, h.attr_pos);
  PutPairs(out, h.attr_neg);
  PutPairs(out, h.link_pos);
  PutPairs(out, h.link_neg);
  out.close();
  return static_cast<bool>(out) && SyncFile(path);
}

bool ReadHoldout(const std::string& path, Holdout* h) {
  std::ifstream in(path, std::ios::binary);
  return GetPairs(in, &h->attr_pos) && GetPairs(in, &h->attr_neg) &&
         GetPairs(in, &h->link_pos) && GetPairs(in, &h->link_neg);
}

}  // namespace panebench
