// Draconis wire protocol (paper §4.1).
//
// The protocol is an application-layer header embedded in a UDP payload. The
// simulation carries packets as structs rather than byte buffers, but wire
// sizes are accounted for exactly (WireSize) so that serialization delays and
// MTU limits behave like the real system.
//
// Fields that exist only for measurement (timestamps) are kept in a separate
// `meta` block and do not count toward the wire size.

#ifndef DRACONIS_NET_PACKET_H_
#define DRACONIS_NET_PACKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace draconis::net {

// Identifies a network endpoint (client, worker/executor NIC, switch CPU
// port, or a server scheduler).
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

// OP_CODE values of the Draconis application protocol, plus the auxiliary
// packet kinds the switch program generates internally (swap/repair) and the
// kinds used by the baseline schedulers.
enum class OpCode : uint8_t {
  // Client -> scheduler.
  kJobSubmission = 1,
  // Scheduler -> client.
  kJobAck = 2,
  kErrorQueueFull = 3,
  // Executor -> scheduler.
  kTaskRequest = 4,
  // Scheduler -> executor.
  kTaskAssignment = 5,
  kNoOpTask = 6,
  // Executor -> scheduler (completion + piggybacked task request).
  kTaskCompletion = 7,
  // Scheduler -> client (forwarded completion).
  kCompletionNotice = 8,
  // Switch-internal, recirculated only.
  kSwapTask = 9,
  kRepair = 10,
  // Baseline-specific messages (probes, credits, queue-length reports).
  kProbe = 11,
  kProbeReply = 12,
  kGetTask = 13,
  kCredit = 14,
  // Any non-Draconis traffic; the switch forwards it unchanged.
  kOther = 15,
  // §4.4 large-parameter handling: an executor assigned a "transmission
  // function" task fetches the real parameters from the client directly.
  kParamFetch = 16,
  kParamData = 17,
  // Multi-rack topology (src/topology/): a ToR broadcasts its queue depth to
  // the sibling racks' summary exchanges.
  kQueueDepthSummary = 18,
};

// FN_ID of the special transmission function (§4.4): the submitted task
// carries no parameters; the executor contacts the client to retrieve them
// (FN_PAR holds the parameter size).
inline constexpr uint32_t kTransmissionFnId = 0xFFFFFFF0u;

const char* OpCodeName(OpCode op);

// <UID, JID, TID> uniquely identifies a task in the system.
struct TaskId {
  uint32_t uid = 0;
  uint32_t jid = 0;
  uint32_t tid = 0;

  bool operator==(const TaskId&) const = default;
};

// A hash usable as a key in unordered containers.
struct TaskIdHash {
  size_t operator()(const TaskId& id) const {
    uint64_t h = (static_cast<uint64_t>(id.uid) << 40) ^ (static_cast<uint64_t>(id.jid) << 20) ^
                 id.tid;
    h *= 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// TASK_INFO (paper Fig. 3): what a job_submission carries per task and what
// the switch stores per queue entry.
struct TaskInfo {
  TaskId id;
  uint32_t fn_id = 0;   // pre-compiled function identifier
  uint64_t fn_par = 0;  // inline parameter (pointer into cluster storage, etc.)
  uint32_t tprops = 0;  // policy-specific: resource bitmap | priority | data-local node

  // How a task was placed relative to its data (locality experiments).
  enum class Placement : uint8_t { kLocal = 0, kSameRack = 1, kRemote = 2, kUnknown = 255 };

  // Meta::ordinal of a task no client has submitted yet.
  static constexpr uint32_t kUnsubmitted = 0xFFFFFFFFu;

  // --- Simulation metadata (not on the wire) ---------------------------------
  struct Meta {
    TimeNs exec_duration = 0;       // service time of the pre-compiled function
    TimeNs first_submit_time = -1;  // first client send (survives resubmission)
    TimeNs submit_time = -1;        // most recent client send
    TimeNs enqueue_time = -1;       // enqueued at the scheduler
    NodeId client = kInvalidNode;   // submitting client (scheduler fills this in)
    uint32_t attempt = 0;           // resubmission count
    Placement placement = Placement::kUnknown;
    // Dense index the metrics hub gives the task at its first submission
    // (MetricsHub::RecordSubmission). Resubmissions, hedges and retries copy
    // the TaskInfo, so every replica carries its task's ordinal.
    uint32_t ordinal = kUnsubmitted;
  } meta;

  // Wire footprint of one TASK_INFO entry: TID + FN_ID + FN_PAR + TPROPS.
  static constexpr size_t kWireSize = 4 + 4 + 8 + 4;
};

// The ordinal sits in Meta's tail padding: every queue entry, packet task
// list and pending-task slot copies TaskInfos, so they must not grow.
static_assert(sizeof(TaskInfo) == 80, "TaskInfo grew");

// Which pointer a kRepair packet corrects.
enum class RepairTarget : uint8_t { kAddPtr = 0, kRetrievePtr = 1 };

// A simulated packet. One struct covers all opcodes; only the fields relevant
// to the opcode are meaningful, mirroring a union-style header layout.
struct Packet {
  OpCode op = OpCode::kOther;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  // kJobSubmission / kErrorQueueFull: UID, JID and the task list (#TASKS ==
  // tasks.size()). kTaskAssignment / kSwapTask / kCompletionNotice carry
  // exactly one task in tasks[0].
  uint32_t uid = 0;
  uint32_t jid = 0;
  std::vector<TaskInfo> tasks;

  // kTaskRequest / kTaskCompletion: the executor's properties — a resource
  // bitmap (EXEC_RSRC) or the node id, depending on the active policy — and
  // the retrieve priority (RTRV_PRIO, 1 = highest).
  uint32_t exec_props = 0;
  uint8_t rtrv_prio = 1;

  // kTaskAssignment: the submitting client, so the executor's completion can
  // be routed back.
  NodeId client_addr = kInvalidNode;

  // kSwapTask: index of the next queue entry to examine, the retrieve-pointer
  // value observed when the walk started, the number of swap passes done, and
  // the carried task's skip counter (§5.3).
  uint64_t swap_indx = 0;
  uint64_t pkt_retrieve_ptr = 0;
  uint32_t swap_count = 0;
  uint32_t skip_counter = 0;
  // Set when a swap walk was converted back into a submission (§5.1); such a
  // submission must not be acknowledged to the client a second time.
  bool from_swap = false;

  // kRepair: which pointer to overwrite, with what value, in which queue.
  RepairTarget repair_target = RepairTarget::kAddPtr;
  uint64_t repair_value = 0;

  // Which class-of-service queue the packet addresses (0-based level index).
  uint8_t queue_index = 0;

  // kParamData: bulk payload riding with the packet (task parameters); it
  // counts toward the wire size and hence the serialization delay.
  uint32_t payload_bytes = 0;

  // kQueueDepthSummary: the sender's rack and its ToR queue depth (the
  // summary rides as payload_bytes for wire accounting).
  uint32_t summary_rack = 0;
  uint64_t summary_depth = 0;

  // --- Simulation metadata ----------------------------------------------------
  TimeNs created_at = -1;     // when the original packet was sent
  uint32_t pipeline_passes = 0;  // pipeline traversals so far (recirculations)

  // Payload bytes on the wire: Ethernet+IP+UDP framing plus the Draconis
  // header and per-task TASK_INFO entries.
  size_t WireSize() const;

  // Human-readable one-liner for logs and test failures.
  std::string Describe() const;
};

// Conventional datagram MTU; job submissions must fit within it.
inline constexpr size_t kMtuBytes = 1500;

// Frame overhead: Ethernet (14+4) + IPv4 (20) + UDP (8) + Draconis base
// header (OP_CODE + UID + JID + #TASKS + misc fields, 16 bytes).
inline constexpr size_t kFrameOverheadBytes = 18 + 20 + 8 + 16;

// Maximum number of TASK_INFO entries that fit in one job_submission.
size_t MaxTasksPerPacket();

}  // namespace draconis::net

#endif  // DRACONIS_NET_PACKET_H_
