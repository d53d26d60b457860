// Package invariant is the system-wide consistency checker the chaos
// harness runs after (and during) fault injection. Each check reconciles
// two independent views of the same state — driver bookkeeping vs device
// allocations, backend states vs driver states, transition logs vs the
// legal state machines — so a fault that corrupts either side surfaces
// as a reported Violation instead of silent drift.
package invariant

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"swapservellm/internal/chaos"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/gpu"
)

// Violation is one invariant breach.
type Violation struct {
	// Check names the invariant that failed (e.g. "driver.accounting").
	Check string
	// Subject is the entity in breach (a pid, backend, node, request).
	Subject string
	// Detail is the human-readable discrepancy.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Check, v.Subject, v.Detail)
}

// Report accumulates violations across checks. The zero value is ready
// to use.
type Report struct {
	Violations []Violation
}

// Addf appends a violation.
func (r *Report) Addf(check, subject, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Check:   check,
		Subject: subject,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// Ok reports whether no invariant was violated.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders all violations, one per line.
func (r *Report) String() string {
	if r.Ok() {
		return "ok"
	}
	lines := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		lines[i] = v.String()
	}
	return strings.Join(lines, "\n")
}

// CheckDriver reconciles the checkpoint driver's bookkeeping against
// the GPU devices: a checkpointed process holds no device memory and
// its image is charged to exactly one tier; a resident process holds no
// image; the host/disk usage totals equal the sum over images; no
// device is over-committed. A process mid-chunked-transfer is instead
// held to the conservation rule — its device allocation plus its image
// must equal the transfer's total at every chunk boundary — and the
// host pledge must equal the un-transferred remainder of every in-flight
// checkpoint. The whole driver view comes from one consistent snapshot,
// so the check is safe to run concurrently with in-flight transfers.
func CheckDriver(r *Report, d *cudackpt.Driver, topo *gpu.Topology) {
	snap := d.Audit()
	var wantHost, wantDisk, wantPledged int64
	for _, p := range snap.Procs {
		if p.ImageBytes < 0 {
			r.Addf("driver.accounting", p.PID, "negative image size %d", p.ImageBytes)
		}
		if p.Transferring {
			if p.DeviceBytes+p.ImageBytes != p.TransferGoal {
				r.Addf("driver.conservation", p.PID,
					"mid-transfer device bytes %d + image bytes %d != transfer goal %d",
					p.DeviceBytes, p.ImageBytes, p.TransferGoal)
			}
			// In-flight image bytes are charged to the image's tier; a
			// checkpoint in flight (Locked) additionally pledges the
			// un-transferred remainder against the host cap.
			if p.Loc == cudackpt.LocDisk {
				wantDisk += p.ImageBytes
			} else {
				wantHost += p.ImageBytes
			}
			if p.State == cudackpt.StateLocked {
				wantPledged += p.TransferGoal - p.ImageBytes
			}
			continue
		}
		if p.State == cudackpt.StateCheckpointed {
			if p.DeviceBytes != 0 {
				r.Addf("driver.accounting", p.PID,
					"checkpointed but still holds %d device bytes", p.DeviceBytes)
			}
			if p.Loc == cudackpt.LocDisk {
				wantDisk += p.ImageBytes
			} else {
				wantHost += p.ImageBytes
			}
		} else if p.ImageBytes != 0 {
			r.Addf("driver.accounting", p.PID,
				"state %v but holds a %d-byte image", p.State, p.ImageBytes)
		}
	}
	if snap.HostUsed != wantHost {
		r.Addf("driver.accounting", "host",
			"HostUsed=%d but checkpointed RAM images sum to %d", snap.HostUsed, wantHost)
	}
	if snap.DiskUsed != wantDisk {
		r.Addf("driver.accounting", "disk",
			"DiskUsed=%d but spilled images sum to %d", snap.DiskUsed, wantDisk)
	}
	if snap.HostPledged != wantPledged {
		r.Addf("driver.pledge", "host",
			"HostPledged=%d but in-flight checkpoints still owe %d", snap.HostPledged, wantPledged)
	}
	for _, dev := range topo.Devices() {
		// One Owners() snapshot keeps the per-device view consistent even
		// while transfers resize allocations concurrently.
		var used int64
		for _, o := range dev.Owners() {
			if o.Bytes < 0 {
				r.Addf("gpu.accounting", fmt.Sprintf("gpu%d", dev.ID()),
					"owner %s holds negative bytes %d", o.Name, o.Bytes)
			}
			used += o.Bytes
		}
		if used < 0 {
			r.Addf("gpu.accounting", fmt.Sprintf("gpu%d", dev.ID()), "negative usage %d", used)
		}
		if used > dev.Total() {
			r.Addf("gpu.accounting", fmt.Sprintf("gpu%d", dev.ID()),
				"used %d exceeds capacity %d", used, dev.Total())
		}
	}
}

// legalCkpt is the cuda-checkpoint state machine: the only transitions
// the driver may commit. Anything else — in particular a repeated
// checkpoint or restore — is a violation.
var legalCkpt = map[string][]string{
	"running":      {"locked"},
	"locked":       {"checkpointed", "running"},
	"checkpointed": {"locked"},
}

// legalNode is the cluster registry state machine (see
// cluster.NodeState): joining promotes or dies, healthy drains or dies,
// draining returns or dies, down only rejoins through healthy.
var legalNode = map[string][]string{
	"joining":  {"healthy", "down"},
	"healthy":  {"draining", "down"},
	"draining": {"healthy", "down"},
	"down":     {"healthy"},
}

// CheckCkptTrace validates every "ckpt" transition in the trace against
// the driver state machine, per process: each event must continue from
// the previous event's target state (processes start Running), and each
// step must be legal. A double-checkpoint or double-restore breaks the
// continuity and is reported.
func CheckCkptTrace(r *Report, tr *chaos.Trace) {
	checkTrace(r, tr, "ckpt", "running", legalCkpt)
}

// CheckNodeTrace validates every "node" transition against the registry
// state machine (nodes start Joining).
func CheckNodeTrace(r *Report, tr *chaos.Trace) {
	checkTrace(r, tr, "node", "joining", legalNode)
}

func checkTrace(r *Report, tr *chaos.Trace, kind, initial string, legal map[string][]string) {
	last := make(map[string]string)
	for _, ev := range tr.Events() {
		if ev.Kind != kind {
			continue
		}
		prev, seen := last[ev.Subject]
		if !seen {
			prev = initial
		}
		if ev.From != prev {
			r.Addf(kind+".continuity", ev.Subject,
				"event #%d claims transition from %q but the last recorded state is %q",
				ev.Seq, ev.From, prev)
		}
		if !contains(legal[ev.From], ev.To) {
			r.Addf(kind+".transition", ev.Subject,
				"event #%d: illegal transition %q -> %q", ev.Seq, ev.From, ev.To)
		}
		last[ev.Subject] = ev.To
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// Ledger proves every accepted request terminates exactly once. The
// workload calls Accept when a request is admitted and Finish when its
// response (success or error) arrives; Check flags requests that never
// finished or finished more than once.
type Ledger struct {
	mu       sync.Mutex
	accepted map[string]int
	orphans  []string
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{accepted: make(map[string]int)}
}

// Accept records the admission of a request.
func (l *Ledger) Accept(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.accepted[id]; !dup {
		l.accepted[id] = 0
	}
}

// Finish records one termination (success or failure) of a request.
func (l *Ledger) Finish(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.accepted[id]; !ok {
		l.orphans = append(l.orphans, id)
		return
	}
	l.accepted[id]++
}

// Check reports every accepted request whose termination count is not
// exactly one, and every termination for a request never accepted.
func (l *Ledger) Check(r *Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]string, 0, len(l.accepted))
	for id := range l.accepted {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if n := l.accepted[id]; n != 1 {
			r.Addf("request.termination", id, "terminated %d times, want exactly 1", n)
		}
	}
	for _, id := range l.orphans {
		r.Addf("request.termination", id, "terminated without being accepted")
	}
}
