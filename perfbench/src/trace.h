// In-memory span recorder for the traced run.
//
// A span records its name, start, end, parent span and request id, and
// stays in memory until the run ends.  Calls too fine-grained to store one
// record each (an engine's gain()/add(), thousands per select) are
// "leaves": their time is summed per name and charged to the enclosing
// span as child time, so self time stays exact while memory stays bounded.
// A null Tracer* turns every Span into a no-op, which is how the same
// replay code runs untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Record {
    const char* name;
    std::uint32_t parent;
    std::uint32_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;  ///< Time covered by children and leaves.
  };

  struct Leaf {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void set_request(std::uint32_t id) { request_ = id; }

  std::uint32_t begin(const char* name) {
    const auto id = static_cast<std::uint32_t>(records_.size());
    records_.push_back(Record{name, stack_.empty() ? kNone : stack_.back(),
                              request_, now_ns(), 0, 0});
    stack_.push_back(id);
    return id;
  }

  void end(std::uint32_t id) {
    Record& r = records_[id];
    r.end_ns = now_ns();
    stack_.pop_back();
    if (r.parent != kNone) records_[r.parent].child_ns += r.end_ns - r.start_ns;
  }

  void leaf(const char* name, std::int64_t ns) {
    Leaf& l = leaves_[name];
    l.ns += ns;
    ++l.calls;
    if (!stack_.empty()) records_[stack_.back()].child_ns += ns;
  }

  const std::vector<Record>& records() const { return records_; }
  const std::map<std::string, Leaf>& leaves() const { return leaves_; }
  void clear_leaves() { leaves_.clear(); }

 private:
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
  std::map<std::string, Leaf> leaves_;
  std::uint32_t request_ = kNone;
};

/// RAII span; no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin(name);
  }
  ~Span() {
    if (tracer_) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = Tracer::kNone;
};

}  // namespace perfbench
