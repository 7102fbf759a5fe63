#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace e2e {

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::int32_t SpanLog::add(const char* name, std::uint64_t op,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::int32_t parent) {
  if (spans_.size() >= capacity_) {
    return -1;
  }
  spans_.push_back(Span{name, parent, op, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int64_t OpTimeline::finish(SpanLog* log, const char* root) {
  const std::int64_t end = now_ns();
  if (log != nullptr) {
    const std::int32_t parent = log->add(root, op_, start_, end, -1);
    for (std::size_t i = 0; parent >= 0 && i < count_; ++i) {
      log->add(steps_[i].name, op_, steps_[i].start, steps_[i].end, parent);
    }
  }
  return end - start_;
}

namespace {

bool is_op_root(const char* name) {
  const std::size_t n = std::strlen(name);
  return n >= 3 && std::strcmp(name + n - 3, ".op") == 0;
}

}  // namespace

LayerTimes layer_times(const std::vector<const SpanLog*>& logs) {
  LayerTimes out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Children are recorded after their parent and never overlap each
    // other (one thread, properly nested), so the covered part of a
    // span is the sum of its children's durations clipped to it.
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        const Span& parent = spans[static_cast<std::size_t>(span.parent)];
        const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
        const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
        if (hi > lo) {
          covered[static_cast<std::size_t>(span.parent)] +=
              static_cast<double>(hi - lo);
        }
      }
    }
    // Accumulate self time per (op, name) before flattening, so an op
    // that enters a layer twice contributes one per-op sample.
    std::map<std::pair<std::uint64_t, std::string>, double> per_op;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      const double self = std::max(0.0, duration - covered[i]);
      if (span.parent < 0) {
        out.op_ns += duration;
      }
      if (!is_op_root(span.name)) {
        out.layer_ns += self;
      }
      per_op[{span.op, span.name}] += self;
      out.total_self_ns[span.name] += self;
    }
    for (const auto& [key, self] : per_op) {
      out.per_op_self_ns[key.second].push_back(self);
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& header) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  for (const std::string& line : header) {
    os << "# " << line << '\n';
  }
  os << "log,index,parent,op,name,start_ns,end_ns\n";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << l << ',' << i << ',' << s.parent << ',' << s.op << ',' << s.name
         << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  if (!os) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

}  // namespace e2e
