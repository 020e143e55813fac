#include "fault/plan.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/json.h"

namespace draconis::fault {

namespace {

// A duration member: integer nanoseconds or a unit string ("250us").
bool ReadDuration(const json::Value& v, TimeNs* out, std::string* error,
                  const std::string& what) {
  if (v.is_number()) {
    return json::ReadInt(v, what, std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max(), out, error);
  }
  if (v.is_string() && ParseDuration(v.AsString(), out)) {
    return true;
  }
  *error = what + " must be integer nanoseconds or a duration string like \"250us\"";
  return false;
}

bool ReadNodeRef(const json::Value* v, NodeRef* out, std::string* error,
                 const std::string& what) {
  if (v == nullptr || !v->is_object()) {
    return json::Fail(error, what + " must be an object {\"role\": ..., \"index\": ...}");
  }
  json::ObjectReader r(*v, what, error, ".");
  if (!r.Enum("role", &out->role)) {
    return false;
  }
  if (!r.Int("index", -1, std::numeric_limits<int32_t>::max(), &out->index)) {
    *error += " (-1 = all instances)";
    return false;
  }
  return r.Finish();
}

void WriteNodeRef(json::Writer& w, const NodeRef& ref) {
  w.BeginObject();
  w.Key("role").String(names::Name(ref.role));
  w.Key("index").Int(ref.index);
  w.EndObject();
}

std::string ValidateEvent(const FaultEvent& e, size_t i) {
  const std::string where = "event " + std::to_string(i) + " (" + names::Name(e.kind) + ")";
  if (e.start < 0) {
    return where + ": start must be >= 0";
  }
  if (e.end != FaultEvent::kNever && e.end <= e.start) {
    return where + ": end must be > start (or omitted to persist)";
  }
  switch (e.kind) {
    case EventKind::kLossyLink:
      if (e.probability < 0.0 || e.probability > 1.0) {
        return where + ": probability must be in [0, 1]";
      }
      break;
    case EventKind::kNodeCrash:
      break;
    case EventKind::kLatencyDegrade:
      if (e.extra_latency <= 0) {
        return where + ": extra_latency must be > 0";
      }
      break;
    case EventKind::kSchedulerFailover:
      break;
  }
  return "";
}

}  // namespace

FaultPlan& FaultPlan::LossyLink(TimeNs start, TimeNs end, double probability, NodeRef src,
                                NodeRef dst) {
  FaultEvent e;
  e.kind = EventKind::kLossyLink;
  e.start = start;
  e.end = end;
  e.probability = probability;
  e.src = src;
  e.dst = dst;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::NodeCrash(TimeNs at, TimeNs recover_at, NodeRef target) {
  FaultEvent e;
  e.kind = EventKind::kNodeCrash;
  e.start = at;
  e.end = recover_at;
  e.target = target;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::LatencyDegrade(TimeNs start, TimeNs end, TimeNs extra_latency) {
  FaultEvent e;
  e.kind = EventKind::kLatencyDegrade;
  e.start = start;
  e.end = end;
  e.extra_latency = extra_latency;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::SchedulerFailover(TimeNs at, TimeNs settle) {
  FaultEvent e;
  e.kind = EventKind::kSchedulerFailover;
  e.start = at;
  e.end = settle;
  events_.push_back(e);
  return *this;
}

bool FaultPlan::has_scheduler_failover() const {
  return failover_at() != FaultEvent::kNever;
}

TimeNs FaultPlan::failover_at() const {
  for (const FaultEvent& e : events_) {
    if (e.kind == EventKind::kSchedulerFailover) {
      return e.start;
    }
  }
  return FaultEvent::kNever;
}

TimeNs FaultPlan::first_onset() const {
  TimeNs first = FaultEvent::kNever;
  for (const FaultEvent& e : events_) {
    if (first == FaultEvent::kNever || e.start < first) {
      first = e.start;
    }
  }
  return first;
}

TimeNs FaultPlan::last_clearance(TimeNs never_fallback) const {
  TimeNs last = FaultEvent::kNever;
  for (const FaultEvent& e : events_) {
    const TimeNs clears = e.end != FaultEvent::kNever ? e.end : never_fallback;
    if (clears > last) {
      last = clears;
    }
  }
  return last;
}

std::string FaultPlan::Validate() const {
  size_t failovers = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const std::string error = ValidateEvent(events_[i], i);
    if (!error.empty()) {
      return error;
    }
    failovers += events_[i].kind == EventKind::kSchedulerFailover ? 1 : 0;
  }
  if (failovers > 1) {
    return "at most one scheduler_failover per plan (a single standby is deployed)";
  }
  return "";
}

bool FaultPlan::FromJson(const std::string& text, FaultPlan* out, std::string* error) {
  DRACONIS_CHECK(out != nullptr && error != nullptr);
  json::Value doc;
  if (!json::Parse(text, &doc, error)) {
    return false;
  }
  json::ObjectReader top(doc, "fault plan", error);
  const json::Value* version = top.Find("schema_version");
  top.Find("name");  // a free-form label
  const json::Value* events = top.Find("events");
  if (!top.Finish()) {
    return false;
  }
  int64_t schema = 0;
  if (version != nullptr && !json::ReadInt(*version, "schema_version", 1, 1, &schema, nullptr)) {
    return json::Fail(error, "unsupported fault plan schema_version (expected 1)");
  }
  if (events == nullptr || !events->is_array()) {
    return json::Fail(error, "fault plan needs an \"events\" array");
  }

  FaultPlan plan;
  for (size_t i = 0; i < events->AsArray().size(); ++i) {
    const std::string where = "event " + std::to_string(i);
    json::ObjectReader r(events->AsArray()[i], where, error, ".");
    FaultEvent e;
    if (!r.Enum("kind", &e.kind)) {
      return false;
    }
    const json::Value* start = r.Find("start");
    if (start == nullptr) {
      return json::Fail(error, where + " needs a start time");
    }
    if (!ReadDuration(*start, &e.start, error, r.Member("start"))) {
      return false;
    }
    if (const json::Value* end = r.Find("end");
        end != nullptr && !end->is_null() && !ReadDuration(*end, &e.end, error, r.Member("end"))) {
      return false;
    }
    switch (e.kind) {
      case EventKind::kLossyLink: {
        const json::Value* p = r.Find("probability");
        if (p == nullptr || !p->is_number()) {
          return json::Fail(error, where + " needs a numeric probability");
        }
        e.probability = p->AsDouble();
        if (!ReadNodeRef(r.Find("src"), &e.src, error, r.Member("src")) ||
            !ReadNodeRef(r.Find("dst"), &e.dst, error, r.Member("dst"))) {
          return false;
        }
        break;
      }
      case EventKind::kNodeCrash:
        if (!ReadNodeRef(r.Find("target"), &e.target, error, r.Member("target"))) {
          return false;
        }
        break;
      case EventKind::kLatencyDegrade: {
        const json::Value* extra = r.Find("extra_latency");
        if (extra == nullptr) {
          return json::Fail(error, where + " needs an extra_latency");
        }
        if (!ReadDuration(*extra, &e.extra_latency, error, r.Member("extra_latency"))) {
          return false;
        }
        break;
      }
      case EventKind::kSchedulerFailover:
        break;
    }
    if (!r.Finish()) {
      return false;
    }
    plan.events_.push_back(e);
  }

  const std::string invalid = plan.Validate();
  if (!invalid.empty()) {
    *error = invalid;
    return false;
  }
  *out = std::move(plan);
  return true;
}

bool FaultPlan::FromJsonFile(const std::string& path, FaultPlan* out, std::string* error) {
  DRACONIS_CHECK(out != nullptr && error != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  if (!FromJson(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::string FaultPlan::ToJson() const {
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("events").BeginArray();
  for (const FaultEvent& e : events_) {
    w.BeginObject();
    w.Key("kind").String(names::Name(e.kind));
    w.Key("start").Int(e.start);
    if (e.end != FaultEvent::kNever) {
      w.Key("end").Int(e.end);
    }
    switch (e.kind) {
      case EventKind::kLossyLink:
        w.Key("probability").Double(e.probability);
        w.Key("src");
        WriteNodeRef(w, e.src);
        w.Key("dst");
        WriteNodeRef(w, e.dst);
        break;
      case EventKind::kNodeCrash:
        w.Key("target");
        WriteNodeRef(w, e.target);
        break;
      case EventKind::kLatencyDegrade:
        w.Key("extra_latency").Int(e.extra_latency);
        break;
      case EventKind::kSchedulerFailover:
        break;
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace draconis::fault
