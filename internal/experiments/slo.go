package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/sched"
	"swapservellm/internal/workload"
)

// The SLO ablation quantifies what the predictive scheduling subsystem
// buys over the reactive baseline: four simulated days of diurnal
// multi-model traffic replay through a discrete-event model of one
// H100 fleet whose restore path is a single serialized transfer link.
// Days one to three train the demand predictor; day four is measured
// under two arms sharing the identical trace:
//
//   - reactive:   fixed keep-alive TTL, no admission, no pre-warm —
//     the pre-sched fleet behaviour.
//   - predictive: predictor-informed TTL, pre-warm sweeps ahead of the
//     forecast ramps, and gateway admission with per-class token
//     buckets and queue-delay shedding.
//
// The simulation is pure virtual time — no goroutines, no clock — so
// the emitted BENCH_slo.json is byte-identical across runs.

// sloModel binds a catalog model to its priority class and demand shape.
type sloModel struct {
	name  string
	class string
	wl    workload.Class
	peak  float64 // peak requests/hour scaling the diurnal curve
}

// sloModels is the nine-model fleet: ~133 GB of fp16 weights contending
// for one 80 GiB device, so residency is always under pressure.
var sloModels = []sloModel{
	{"llama3.2:1b-fp16", "interactive", workload.ClassConversational, 240},
	{"llama3.2:3b-fp16", "interactive", workload.ClassConversational, 180},
	{"gemma3:4b-fp16", "interactive", workload.ClassConversational, 150},
	{"llama3.1:8b-fp16", "standard", workload.ClassCoding, 80},
	{"deepseek-r1:7b-fp16", "standard", workload.ClassCoding, 60},
	{"deepseek-coder:6.7b-fp16", "standard", workload.ClassCoding, 60},
	{"gemma:7b-fp16", "batch", workload.ClassCoding, 24},
	{"gemma3:12b-fp16", "batch", workload.ClassCoding, 18},
	{"deepseek-r1:14b-fp16", "batch", workload.ClassCoding, 12},
}

// sloClasses declares the three priority tiers. Interactive and
// standard rates are far above their offered load, so their guaranteed
// buckets never empty and shedding is confined to batch by
// construction of the priority-aware policy, not by luck.
func sloClasses() config.SchedCfg {
	return config.SchedCfg{
		Classes: []config.SchedClass{
			{Name: "interactive", Priority: 0, SLOSec: 2.5, RatePerSec: 5, Burst: 10},
			{Name: "standard", Priority: 1, SLOSec: 8, RatePerSec: 2, Burst: 4},
			{Name: "batch", Priority: 2, SLOSec: 10, RatePerSec: 0.001, Burst: 1},
		},
		Admission: true,
	}
}

// SLOClassRow is one (arm, class) measurement.
type SLOClassRow struct {
	Arm       string
	Class     string
	Offered   int
	Admitted  int
	Shed      int
	MeanSec   float64
	P99Sec    float64
	AttainPct float64 // % of admitted requests finishing within the class SLO
}

// SLOArmSummary aggregates one arm's fleet activity.
type SLOArmSummary struct {
	Arm            string
	Restores       int
	Evictions      int
	PrefetchIssued int
	PrefetchHits   int
	PrefetchMisses int
}

// SLOResult is the full ablation output.
type SLOResult struct {
	Rows []SLOClassRow
	Arms []SLOArmSummary
}

// sloEvent is one offered request in the measured day.
type sloEvent struct {
	at    time.Time
	model int // index into sloModels
}

// sloSim is the discrete-event fleet state for one arm.
type sloSim struct {
	tb       perfmodel.Testbed
	capacity int64
	used     int64
	warm     map[string]bool
	warmAt   map[string]time.Time // pending restore completion
	lastUsed map[string]time.Time
	linkFree time.Time
	weights  map[string]int64
	engines  map[string]perfmodel.EngineKind

	classOf map[string]string

	ttl       sched.TTLPolicy
	restores  int
	evictions int
}

func newSLOSim(ttl sched.TTLPolicy) *sloSim {
	tb := perfmodel.H100()
	s := &sloSim{
		tb:       tb,
		capacity: tb.GPUMemBytes,
		warm:     make(map[string]bool),
		warmAt:   make(map[string]time.Time),
		lastUsed: make(map[string]time.Time),
		weights:  make(map[string]int64),
		engines:  make(map[string]perfmodel.EngineKind),
		classOf:  make(map[string]string),
		ttl:      ttl,
	}
	cat := models.Default()
	for _, m := range sloModels {
		s.weights[m.name] = cat.MustLookup(m.name).WeightBytes()
		s.engines[m.name] = perfmodel.EngineOllama
		s.classOf[m.name] = m.class
	}
	return s
}

// restoreDur is the cold swap-in cost for model on the transfer link:
// read the checkpoint image off its tier, then restore over PCIe.
// Interactive-class images are pinned to host RAM; lower classes spill
// to disk under the snapshot host-memory cap, so their restores are
// several times slower — the congestion admission control works
// against.
func (s *sloSim) restoreDur(model string) time.Duration {
	wb := s.weights[model]
	tier := perfmodel.TierDisk
	if s.classOf[model] == "interactive" {
		tier = perfmodel.TierTmpfs
	}
	return s.tb.StorageReadTime(tier, wb) + s.tb.CheckpointRestore(wb, wb, s.engines[model])
}

// serviceDur is the decode time for a fixed 64-token completion.
func (s *sloSim) serviceDur(model string) time.Duration {
	tps := s.tb.DecodeTokensPerSec(s.engines[model], models.Default().MustLookup(model))
	return time.Duration(64 / tps * float64(time.Second))
}

// waitFor estimates the queue delay a request for model arriving at t
// would see, without mutating any state — the gateway's predicted wait.
func (s *sloSim) waitFor(model string, t time.Time) time.Duration {
	if s.warm[model] {
		if wa := s.warmAt[model]; wa.After(t) {
			return wa.Sub(t)
		}
		return 0
	}
	start := t
	if s.linkFree.After(start) {
		start = s.linkFree
	}
	return start.Sub(t) + s.restoreDur(model)
}

// restore makes model resident: evict under capacity pressure, queue
// the image transfer on the serialized link, and return the completion
// time. Swap-outs ride the full-duplex pipelined engine, so eviction
// itself does not occupy the link.
func (s *sloSim) restore(model string, t time.Time) time.Time {
	s.ensureCapacity(s.weights[model], model, t)
	start := t
	if s.linkFree.After(start) {
		start = s.linkFree
	}
	finish := start.Add(s.restoreDur(model))
	s.linkFree = finish
	s.used += s.weights[model]
	s.warm[model] = true
	s.warmAt[model] = finish
	s.lastUsed[model] = t
	s.restores++
	return finish
}

// ensureCapacity evicts least-recently-used resident models (never one
// mid-restore, never the incoming model) until need bytes fit.
func (s *sloSim) ensureCapacity(need int64, incoming string, t time.Time) {
	if s.capacity-s.used >= need {
		return
	}
	var cands []string
	for m, w := range s.warm {
		if w && m != incoming && !s.warmAt[m].After(t) {
			cands = append(cands, m)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		ti, tj := s.lastUsed[cands[i]], s.lastUsed[cands[j]]
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return cands[i] < cands[j]
	})
	for _, m := range cands {
		if s.capacity-s.used >= need {
			return
		}
		s.evict(m, t)
	}
}

// evict reclaims model's residency.
func (s *sloSim) evict(model string, t time.Time) {
	s.used -= s.weights[model]
	s.warm[model] = false
	delete(s.warmAt, model)
	s.evictions++
}

// sweepTTL is the reaper pass: consult the TTL policy for every idle
// resident model, in the fixed fleet order.
func (s *sloSim) sweepTTL(t time.Time) {
	for _, m := range sloModels {
		if !s.warm[m.name] || s.warmAt[m.name].After(t) {
			continue
		}
		idle := t.Sub(s.lastUsed[m.name])
		if idle > 0 && s.ttl.ShouldEvict(m.name, idle, t) {
			s.evict(m.name, t)
		}
	}
}

// sloTrace generates the deterministic four-day arrival trace shared by
// both arms: per-model NHPP arrivals from Monday through Thursday.
func sloTrace(seed int64) (training [][]time.Time, measured []sloEvent) {
	monday := epoch.Add(24 * time.Hour) // epoch is Sunday 2025-11-16
	thursday := monday.Add(3 * 24 * time.Hour)
	friday := monday.Add(4 * 24 * time.Hour)

	training = make([][]time.Time, len(sloModels))
	for i, m := range sloModels {
		gen := workload.NewGenerator(seed + int64(i)*101)
		for _, r := range gen.Arrivals(m.wl, m.name, monday, friday, m.peak, 2) {
			if r.At.Before(thursday) {
				training[i] = append(training[i], r.At)
			} else {
				measured = append(measured, sloEvent{at: r.At, model: i})
			}
		}
	}
	sort.SliceStable(measured, func(i, j int) bool { return measured[i].at.Before(measured[j].at) })
	return training, measured
}

// runSLOArm replays the measured day through one arm.
func runSLOArm(arm string, predictive bool, training [][]time.Time, measured []sloEvent) ([]SLOClassRow, SLOArmSummary) {
	cfg := sloClasses()
	reg := metrics.NewRegistry()

	const baseTTL = 120 * time.Second

	var pred *sched.Predictor
	var adm *sched.Admission
	var pw *sched.Prewarmer
	var ttl sched.TTLPolicy
	var sim *sloSim
	var simNow time.Time

	if predictive {
		pred = sched.NewPredictor()
		for i := range sloModels {
			for _, at := range training[i] {
				pred.Observe(sloModels[i].name, at)
			}
		}
		var err error
		adm, err = sched.NewAdmission(cfg, reg, nil)
		if err != nil {
			panic(err)
		}
		pttl := sched.NewPredictiveTTL(pred, nil)
		pttl.Slack = 100
		pttl.Floor = 60 * time.Second
		ttl = pttl
		sim = newSLOSim(ttl)
		pttl.Restore = sim.restoreDur
		names := make([]string, len(sloModels))
		for i, m := range sloModels {
			names[i] = m.name
		}
		pw = sched.NewPrewarmer(sched.PrewarmConfig{
			Predictor: pred,
			Models:    names,
			Horizon:   5 * time.Minute,
			Interval:  time.Minute,
			Threshold: 3,
			Registry:  reg,
			Issue: func(m string) bool {
				if sim.warm[m] {
					return false
				}
				sim.restore(m, simNow)
				return true
			},
		})
	} else {
		ttl = &sched.FixedTTL{TTL: baseTTL}
		sim = newSLOSim(ttl)
	}

	classOf := make(map[int]string, len(sloModels))
	for i, m := range sloModels {
		classOf[i] = m.class
	}
	latencies := map[string][]time.Duration{}
	offered := map[string]int{}
	shed := map[string]int{}

	const ttlSweepEvery = 15 * time.Second
	monday := epoch.Add(24 * time.Hour)
	thursday := monday.Add(3 * 24 * time.Hour)
	nextTTL := thursday
	nextPW := thursday

	for _, ev := range measured {
		t := ev.at
		for !nextTTL.After(t) {
			sim.sweepTTL(nextTTL)
			nextTTL = nextTTL.Add(ttlSweepEvery)
		}
		if pw != nil {
			for !nextPW.After(t) {
				simNow = nextPW
				pw.Sweep(nextPW)
				nextPW = nextPW.Add(time.Minute)
			}
		}

		m := sloModels[ev.model]
		class := classOf[ev.model]
		offered[class]++
		if pred != nil {
			pred.Observe(m.name, t)
		}

		ready := sim.warm[m.name] && !sim.warmAt[m.name].After(t)
		if pw != nil {
			pw.NotePlacement(m.name, ready, t)
		}

		wait := sim.waitFor(m.name, t)
		if adm != nil {
			if dec := adm.Decide(class, wait, t); !dec.Admit {
				shed[class]++
				continue
			}
		}

		if !sim.warm[m.name] {
			finish := sim.restore(m.name, t)
			wait = finish.Sub(t)
		} else if wa := sim.warmAt[m.name]; wa.After(t) {
			wait = wa.Sub(t)
		} else {
			wait = 0
		}
		served := t.Add(wait)
		if served.After(sim.lastUsed[m.name]) {
			sim.lastUsed[m.name] = served
		}
		lat := wait + sim.serviceDur(m.name)
		latencies[class] = append(latencies[class], lat)
		if adm != nil {
			adm.NoteStart(class)
			adm.NoteDone(class, lat)
		}
	}

	var rows []SLOClassRow
	for _, c := range cfg.Classes {
		ls := latencies[c.Name]
		slo := c.SLO()
		within := 0
		for _, l := range ls {
			if l <= slo {
				within++
			}
		}
		att := 0.0
		if len(ls) > 0 {
			att = 100 * float64(within) / float64(len(ls))
		}
		rows = append(rows, SLOClassRow{
			Arm:       arm,
			Class:     c.Name,
			Offered:   offered[c.Name],
			Admitted:  len(ls),
			Shed:      shed[c.Name],
			MeanSec:   mean(ls),
			P99Sec:    quantile(ls, 0.99),
			AttainPct: att,
		})
	}
	sum := SLOArmSummary{
		Arm:            arm,
		Restores:       sim.restores,
		Evictions:      sim.evictions,
		PrefetchIssued: int(reg.Counter("sched_prefetch_issued").Value()),
		PrefetchHits:   int(reg.Counter("sched_prefetch_hits").Value()),
		PrefetchMisses: int(reg.Counter("sched_prefetch_misses").Value()),
	}
	return rows, sum
}

// SLOAblation runs the reactive-vs-predictive comparison on the shared
// trace. Deterministic for a given seed: byte-identical artifacts.
func SLOAblation(seed int64) *SLOResult {
	training, measured := sloTrace(seed)
	res := &SLOResult{}
	for _, arm := range []struct {
		name       string
		predictive bool
	}{
		{"reactive", false},
		{"predictive", true},
	} {
		rows, sum := runSLOArm(arm.name, arm.predictive, training, measured)
		res.Rows = append(res.Rows, rows...)
		res.Arms = append(res.Arms, sum)
	}
	return res
}

// PrintSLO renders the ablation tables.
func PrintSLO(w io.Writer, res *SLOResult) {
	fprintf(w, "Ablation: predictive SLO scheduling vs reactive baseline (one measured day, shared trace)\n")
	fprintf(w, "%-11s %-12s %8s %9s %6s %9s %9s %10s\n",
		"Arm", "Class", "offered", "admitted", "shed", "mean(s)", "p99(s)", "attain(%)")
	for _, r := range res.Rows {
		fprintf(w, "%-11s %-12s %8d %9d %6d %9.2f %9.2f %10.2f\n",
			r.Arm, r.Class, r.Offered, r.Admitted, r.Shed, r.MeanSec, r.P99Sec, r.AttainPct)
	}
	fprintf(w, "%-11s %9s %10s %9s %6s %7s\n", "Arm", "restores", "evictions", "prefetch", "hits", "misses")
	for _, a := range res.Arms {
		fprintf(w, "%-11s %9d %10d %9d %6d %7d\n",
			a.Arm, a.Restores, a.Evictions, a.PrefetchIssued, a.PrefetchHits, a.PrefetchMisses)
	}
}

// SLOCSV flattens the per-class rows for -csv output.
func SLOCSV(res *SLOResult) (string, []string) {
	header := "arm,class,offered,admitted,shed,mean_s,p99_s,slo_attainment_pct"
	var rows []string
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprintf("%s,%s,%d,%d,%d,%.3f,%.3f,%.2f",
			r.Arm, r.Class, r.Offered, r.Admitted, r.Shed, r.MeanSec, r.P99Sec, r.AttainPct))
	}
	return header, rows
}

// SLOBenchJSON renders the committed BENCH_slo.json artifact. Formatting
// is fixed-precision so the bytes are stable run to run.
func SLOBenchJSON(res *SLOResult) string {
	cfg := sloClasses()
	out := "{\n"
	out += "  \"benchmark\": \"SLOAblation\",\n"
	out += "  \"description\": \"One measured day of diurnal nine-model traffic (~133 GB fp16 weights on one 80 GiB H100, restores serialized on one transfer link) replayed through the reactive baseline and the predictive scheduling subsystem. Days 1-3 of the same trace train the demand predictor.\",\n"
	out += "  \"testbed\": \"h100\",\n"
	out += "  \"command\": \"go run ./cmd/swapbench -exp slo\",\n"
	out += "  \"classes\": [\n"
	out += jsonList(cfg.Classes, func(c config.SchedClass) string {
		return fmt.Sprintf("{\"name\": %q, \"priority\": %d, \"slo_s\": %.1f, \"guaranteed_rate_per_s\": %.3f}",
			c.Name, c.Priority, c.SLOSec, c.RatePerSec)
	})
	out += "  ],\n"
	out += "  \"rows\": [\n"
	out += jsonList(res.Rows, func(r SLOClassRow) string {
		return fmt.Sprintf("{\"arm\": %q, \"class\": %q, \"offered\": %d, \"admitted\": %d, \"shed\": %d, \"mean_s\": %.3f, \"p99_s\": %.3f, \"slo_attainment_pct\": %.2f}",
			r.Arm, r.Class, r.Offered, r.Admitted, r.Shed, r.MeanSec, r.P99Sec, r.AttainPct)
	})
	out += "  ],\n"
	out += "  \"arms\": [\n"
	out += jsonList(res.Arms, func(a SLOArmSummary) string {
		return fmt.Sprintf("{\"arm\": %q, \"restores\": %d, \"evictions\": %d, \"prefetch_issued\": %d, \"prefetch_hits\": %d, \"prefetch_misses\": %d}",
			a.Arm, a.Restores, a.Evictions, a.PrefetchIssued, a.PrefetchHits, a.PrefetchMisses)
	})
	out += "  ]\n}\n"
	return out
}
