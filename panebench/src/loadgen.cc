#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

namespace panebench {

namespace {

constexpr unsigned char kFrameHeader[4] = {0xAB, 'P', 'F', 0x01};
constexpr size_t kFrameHeaderSize = 8;

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kAttr: return "attr";
    case Verb::kLink: return "link";
    case Verb::kPattr: return "pattr";
    case Verb::kPair: return "pair";
  }
  return "";
}

std::vector<std::string> SplitSpaces(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == ' ') ++i;
    size_t j = i;
    while (j < s.size() && s[j] != ' ') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool ParseInt(const std::string& s, int64_t* v) {
  char* end = nullptr;
  errno = 0;
  *v = std::strtoll(s.c_str(), &end, 10);
  return errno == 0 && end != s.c_str() && *end == '\0';
}

bool ParseDouble(const char* begin, const char* stop, double* v) {
  char* end = nullptr;
  *v = std::strtod(begin, &end);
  return end == stop && end != begin;
}

}  // namespace

struct LoadClient::Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<int64_t> fifo;  // request indices awaiting their answer
};

LoadClient::LoadClient(const LoadConfig& config) : config_(config) {}

LoadClient::~LoadClient() { CloseAll(); }

void LoadClient::CloseAll() {
  for (Conn* c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    delete c;
  }
  conns_.clear();
}

bool LoadClient::Connect() {
  CloseAll();
  for (int i = 0; i < config_.conns; ++i) {
    auto* c = new Conn;
    conns_.push_back(c);
    c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c->fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(config_.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

std::string LoadClient::Encode(const Request& r) const {
  std::string payload = VerbName(r.verb);
  payload += ' ';
  payload += std::to_string(r.a);
  payload += ' ';
  payload += std::to_string(r.verb == Verb::kAttr || r.verb == Verb::kLink
                                ? config_.k
                                : r.b);
  if (!config_.frame) return payload + '\n';
  std::string framed(reinterpret_cast<const char*>(kFrameHeader), 4);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) framed += static_cast<char>((len >> (8 * i)) & 0xFF);
  return framed + payload;
}

Request DrawRequest(const LoadConfig& config, Rng* rng) {
  Request r;
  const double u = rng->Uniform();
  r.a = rng->Below(config.num_nodes);
  if (u < config.attr_share) {
    r.verb = Verb::kAttr;
  } else if (u < config.attr_share + config.link_share) {
    r.verb = Verb::kLink;
  } else if (u < 0.5 * (1.0 + config.attr_share + config.link_share)) {
    r.verb = Verb::kPattr;
    r.b = rng->Below(config.num_attributes);
  } else {
    r.verb = Verb::kPair;
    r.b = rng->Below(config.num_nodes);
  }
  return r;
}

Phase LoadClient::Run(double rate, int64_t total, uint64_t seed,
                      int64_t max_backlog, double drain_s) {
  Phase phase;
  phase.rate = rate;
  Rng rng(seed);
  std::vector<std::string> encoded(static_cast<size_t>(total));
  phase.requests.resize(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    phase.requests[i] = DrawRequest(config_, &rng);
    encoded[i] = Encode(phase.requests[i]);
  }
  std::vector<int64_t> scheduled(static_cast<size_t>(total));
  std::vector<int64_t> sent(static_cast<size_t>(total), -1);
  std::vector<int64_t> received(static_cast<size_t>(total), -1);
  phase.answers.assign(static_cast<size_t>(total), std::string());
  const int64_t t0 = NowNanos() + 1000000;
  for (int64_t i = 0; i < total; ++i) {
    scheduled[i] = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
  }

  const int nconn = static_cast<int>(conns_.size());
  int64_t next = 0, answered = 0, send_end = -1, drain_deadline = 0;
  bool broken = false;
  std::vector<pollfd> fds(static_cast<size_t>(nconn));
  std::vector<char> buf(1 << 16);
  while (true) {
    int64_t now = NowNanos();
    if (send_end < 0) {
      while (next < total && scheduled[next] <= now) {
        if (next - answered > max_backlog) {
          phase.aborted = true;
          break;
        }
        Conn* c = conns_[static_cast<size_t>(next % nconn)];
        c->out += encoded[next];
        c->fifo.push_back(next);
        sent[next] = now;
        ++next;
      }
      if (phase.aborted || next == total) {
        send_end = now;
        phase.backlog_at_end = next - answered;
        drain_deadline = now + static_cast<int64_t>(drain_s * 1e9);
      }
    }
    // Write what is pending.
    for (Conn* c : conns_) {
      while (c->out_off < c->out.size()) {
        const ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                                 c->out.size() - c->out_off, MSG_NOSIGNAL);
        if (w <= 0) {
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          broken = true;
          break;
        }
        c->out_off += static_cast<size_t>(w);
      }
      if (c->out_off == c->out.size()) {
        c->out.clear();
        c->out_off = 0;
      }
    }
    if (broken) break;
    if (send_end >= 0 && (answered == next || now > drain_deadline)) break;

    int64_t wait_ns = send_end < 0 ? scheduled[next] - now : drain_deadline - now;
    wait_ns = std::clamp<int64_t>(wait_ns, 0, 50000000);
    for (int i = 0; i < nconn; ++i) {
      fds[i].fd = conns_[i]->fd;
      fds[i].events = POLLIN;
      if (!conns_[i]->out.empty()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), static_cast<nfds_t>(nconn), &ts,
                              nullptr);
    if (ready <= 0) continue;
    for (int i = 0; i < nconn && !broken; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* c = conns_[static_cast<size_t>(i)];
      while (true) {
        const ssize_t r = ::recv(c->fd, buf.data(), buf.size(), 0);
        if (r > 0) {
          c->in.append(buf.data(), static_cast<size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        broken = true;  // peer closed or failed
        break;
      }
      const int64_t stamp = NowNanos();
      size_t pos = 0;
      while (!c->fifo.empty()) {
        std::string message;
        if (config_.frame) {
          if (c->in.size() - pos < kFrameHeaderSize) break;
          uint32_t len = 0;
          for (int b = 0; b < 4; ++b) {
            len |= static_cast<uint32_t>(
                       static_cast<unsigned char>(c->in[pos + 4 + b]))
                   << (8 * b);
          }
          if (std::memcmp(c->in.data() + pos, kFrameHeader, 4) != 0) {
            broken = true;
            break;
          }
          if (c->in.size() - pos - kFrameHeaderSize < len) break;
          message = c->in.substr(pos + kFrameHeaderSize, len);
          pos += kFrameHeaderSize + len;
        } else {
          const size_t eol = c->in.find('\n', pos);
          if (eol == std::string::npos) break;
          message = c->in.substr(pos, eol - pos);
          pos = eol + 1;
        }
        const int64_t idx = c->fifo.front();
        c->fifo.pop_front();
        phase.answers[idx] = std::move(message);
        received[idx] = stamp;
        ++answered;
      }
      c->in.erase(0, pos);
    }
    if (broken) break;
  }

  phase.requests.resize(static_cast<size_t>(next));
  phase.answers.resize(static_cast<size_t>(next));
  scheduled.resize(static_cast<size_t>(next));
  sent.resize(static_cast<size_t>(next));
  received.resize(static_cast<size_t>(next));
  phase.timing = AccountOpenLoop(scheduled, sent, received);
  phase.scheduled_ns = std::move(scheduled);
  phase.received_ns = std::move(received);
  if (broken || answered < next) Connect();
  return phase;
}

bool ParseTopK(const std::string& answer, const Request& r, Ranked* out) {
  const std::vector<std::string> tokens = SplitSpaces(answer);
  int64_t node = -1;
  if (tokens.size() < 3 || tokens[0] != VerbName(r.verb) ||
      !ParseInt(tokens[1], &node) || node != r.a || tokens[2] != "ok") {
    return false;
  }
  out->clear();
  for (size_t i = 3; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const size_t colon = t.find(':');
    int64_t id = 0;
    double score = 0.0;
    if (colon == std::string::npos || !ParseInt(t.substr(0, colon), &id) ||
        !ParseDouble(t.c_str() + colon + 1, t.c_str() + t.size(), &score)) {
      return false;
    }
    out->emplace_back(id, score);
  }
  return true;
}

bool ParsePair(const std::string& answer, const Request& r, double* score) {
  const std::vector<std::string> tokens = SplitSpaces(answer);
  int64_t a = -1, b = -1;
  return tokens.size() == 5 && tokens[0] == VerbName(r.verb) &&
         ParseInt(tokens[1], &a) && a == r.a && ParseInt(tokens[2], &b) &&
         b == r.b && tokens[3] == "ok" &&
         ParseDouble(tokens[4].c_str(), tokens[4].c_str() + tokens[4].size(),
                     score);
}

PhaseCheck CheckPhase(const Phase& phase, const Oracle& oracle, int64_t k,
                      bool exact, int64_t scan_every, int64_t max_scans) {
  PhaseCheck check;
  int64_t topk_seen = 0;
  const auto note = [&check](const std::string& what) {
    if (check.first_error.empty()) check.first_error = what;
  };
  const auto fail = [&](const std::string& what) {
    ++check.failed;
    note(what);
  };
  const auto wrong = [&](const std::string& what) {
    ++check.wrong;
    note(what);
  };
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    const std::string& answer = phase.answers[i];
    if (answer.empty()) {
      fail("request " + std::to_string(i) + " unanswered");
      continue;
    }
    if (answer.rfind("err", 0) == 0) {
      fail("request " + std::to_string(i) + " answered: " + answer);
      continue;
    }
    if (r.verb == Verb::kAttr || r.verb == Verb::kLink) {
      Ranked got;
      if (!ParseTopK(answer, r, &got)) {
        wrong("malformed answer: " + answer.substr(0, 120));
        continue;
      }
      const bool scan =
          topk_seen++ % scan_every == 0 && check.full_scans < max_scans;
      double recall = -1.0;
      const std::string error = oracle.CheckTopK(
          r.verb == Verb::kAttr, r.a, k, got, exact, scan,
          scan ? &recall : nullptr);
      if (!error.empty()) {
        wrong(error);
        continue;
      }
      if (scan) {
        ++check.full_scans;
        check.recall_sum += recall;
        ++check.recall_count;
      }
    } else {
      double score = 0.0;
      if (!ParsePair(answer, r, &score)) {
        wrong("malformed answer: " + answer.substr(0, 120));
        continue;
      }
      const std::string error =
          oracle.CheckPair(r.verb == Verb::kPattr, r.a, r.b, score);
      if (!error.empty()) wrong(error);
    }
  }
  return check;
}

}  // namespace panebench
