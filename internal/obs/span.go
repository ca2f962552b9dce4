package obs

// Span tracing: the second observability layer. Where the metrics
// registry answers "how much, in aggregate", span trees answer "why was
// THIS frame slow". Each processed leader frame can be recorded as a
// small tree of spans -- frame -> stage -> solve -- carrying the
// propagated identity chain (session -> request -> step -> frame) so a
// recorded tree is correlatable with a server request log line and an
// NDJSON trace record.
//
// The design constraints mirror the metrics layer:
//
//   - Disabled is a true no-op: the frame loop holds no builder and pays
//     one nil check per frame. The TestFrameLoopAllocs gate and the
//     Workers 4==1 determinism contract are untouched.
//   - Enabled is allocation-bounded: each simulation job owns one
//     FrameBuilder arena whose span slice grows to the frame-shape
//     high-water mark and is then reused; offering a finished tree to
//     the FlightRecorder copies it into preallocated ring slots.
//   - Spans are assembled post-hoc at frame end from durations the
//     pipeline already measured (DetectWall, ClusterWall, SchedWall,
//     PivotWall), so tracing adds only the frame-boundary clock reads,
//     not per-stage ones.

// SpanKind classifies one node of a frame span tree.
type SpanKind uint8

const (
	// SpanFrame is the root span: one processed leader frame.
	SpanFrame SpanKind = iota
	// SpanStage is a pipeline stage (detect, cluster, sched, execute,
	// account) nested under the frame.
	SpanStage
	// SpanSolve is one ILP solve nested under its stage; DurNS is the LP
	// pivot wall time, A/B carry B&B nodes and simplex iterations.
	SpanSolve
	// SpanEvent marks a synthetic record (fault event, request deadline)
	// pinned outside the normal frame flow.
	SpanEvent
)

var spanKindNames = [...]string{"frame", "stage", "solve", "event"}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one timed node in a frame's span tree. StartNS is the offset
// from the frame span's start, so a tree is self-contained without
// absolute timestamps.
type Span struct {
	Kind    SpanKind
	Name    string
	Parent  int32 // index into the owning tree's Spans; -1 for the root
	StartNS int64
	DurNS   int64
	// A and B are kind-specific payloads: targets in / results out for
	// stages, B&B nodes / simplex iterations for solves.
	A, B int64
}

// Anomaly is a bitmask of per-frame anomaly signals. Any set bit makes
// the flight recorder pin the frame so it survives ring churn.
type Anomaly uint16

const (
	// AnomFallback: the scheduling ILP stopped without an incumbent and
	// the greedy fallback produced the schedule.
	AnomFallback Anomaly = 1 << iota
	// AnomWarmReject: a warm-start candidate was offered and failed
	// verification (sched or cluster solve).
	AnomWarmReject
	// AnomDualRepair: a reused LP basis violated bounds and the dual
	// repair pivots could not restore feasibility (cold-path fallback).
	AnomDualRepair
	// AnomRefactor: the LP hit a stability alarm -- a tiny pivot element
	// that forced a basis refactorization mid-solve. Routine rebuilds on
	// the eta-update budget do not count.
	AnomRefactor
	// AnomDeadline: compute + scheduling exceeded the frame cadence.
	AnomDeadline
	// AnomFault: a scheduled fault event (follower/leader failure) fired.
	AnomFault
	// AnomRequestDeadline: the serving request hit its deadline (504)
	// while this session was running.
	AnomRequestDeadline
	// AnomServerError: the serving request answered a non-504 5xx.
	AnomServerError

	numAnomalies = 8
)

var anomalyNames = [numAnomalies]string{
	"solver-fallback", "warm-reject", "dual-repair-fail", "refactor-alarm",
	"deadline-miss", "fault-event", "request-deadline", "server-error",
}

// Kinds expands the bitmask into its human-readable names.
func (a Anomaly) Kinds() []string {
	if a == 0 {
		return nil
	}
	out := make([]string, 0, numAnomalies)
	for i := 0; i < numAnomalies; i++ {
		if a&(1<<i) != 0 {
			out = append(out, anomalyNames[i])
		}
	}
	return out
}

// FrameTree is one frame's recorded span tree plus its propagated
// identity chain. Spans[0] is always the root frame span; its DurNS is
// the frame's total recorded wall time.
type FrameTree struct {
	Seq     uint64 // recorder sequence number, assigned at offer time
	Session string
	Request string
	Step    int
	Group   int
	Frame   int
	TimeS   float64 // simulated time of the frame
	Anom    Anomaly
	Spans   []Span
}

// DurNS returns the root span's duration.
func (t *FrameTree) DurNS() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].DurNS
}

// copyInto replaces dst's identity and spans with t's, reusing dst's
// span backing array -- the recorder's bounded-memory primitive.
func (t *FrameTree) copyInto(dst *FrameTree) {
	spans := append(dst.Spans[:0], t.Spans...)
	*dst = *t
	dst.Spans = spans
}

// FrameBuilder stages one frame's span tree before offering it to the
// recorder. One builder per simulation job: Start/Add/Anomaly run on the
// job's goroutine with no synchronization; only Finish (and Event)
// touches the recorder, under its mutex. The builder's span slice is the
// per-worker arena -- it grows to the frame-shape high-water mark once
// and is reused for every later frame.
type FrameBuilder struct {
	rec  *FlightRecorder
	tree FrameTree
}

// Start begins a new frame tree, resetting the arena. The root frame
// span is Spans[0]; its duration is stamped by Finish.
func (b *FrameBuilder) Start(group, frame int, timeS float64) {
	b.tree.Group = group
	b.tree.Frame = frame
	b.tree.TimeS = timeS
	b.tree.Anom = 0
	b.tree.Spans = append(b.tree.Spans[:0], Span{Kind: SpanFrame, Name: "frame", Parent: -1})
}

// Add appends a child span under parent (an index returned by a previous
// Add, or 0 for the root) and returns its index.
func (b *FrameBuilder) Add(parent int32, kind SpanKind, name string, startNS, durNS, a, bb int64) int32 {
	b.tree.Spans = append(b.tree.Spans, Span{
		Kind: kind, Name: name, Parent: parent,
		StartNS: startNS, DurNS: durNS, A: a, B: bb,
	})
	return int32(len(b.tree.Spans) - 1)
}

// Anomaly flags the frame under construction.
func (b *FrameBuilder) Anomaly(a Anomaly) { b.tree.Anom |= a }

// Finish stamps the root span's duration and offers the tree to the
// recorder, which copies it; the builder's arena is immediately
// reusable.
func (b *FrameBuilder) Finish(totalNS int64) {
	if len(b.tree.Spans) == 0 {
		return
	}
	b.tree.Spans[0].DurNS = totalNS
	b.rec.offer(&b.tree)
}

// Event records and pins a synthetic single-span tree outside the
// normal frame flow -- fault events and request deadlines use it so the
// anomaly is retrievable even when no frame was in flight.
func (b *FrameBuilder) Event(group, frame int, timeS float64, a Anomaly, name string) {
	b.rec.PinEvent(FrameTree{
		Group: group, Frame: frame, TimeS: timeS, Anom: a,
		Spans: []Span{{Kind: SpanEvent, Name: name, Parent: -1}},
	})
}
