// Command loadgen drives a running swapserved with synthetic bursty
// workloads (the diurnal arrival model behind Figure 1) and reports
// latency statistics per model. It can also emit traces to CSV and
// replay recorded traces with their original timing.
//
//	loadgen -addr 127.0.0.1:8080 -models llama3.2:1b-fp16,deepseek-r1:7b-q4 -requests 50
//	loadgen -emit day.csv -models llama3.2:1b-fp16 -class coding -hours 24 -peak 120
//	loadgen -trace day.csv -addr 127.0.0.1:8080 -timescale 2000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "swapserved router address")
		modelsF   = flag.String("models", "", "comma-separated model list")
		requests  = flag.Int("requests", 40, "total requests to send (closed-loop mode)")
		conc      = flag.Int("concurrency", 8, "maximum in-flight requests")
		seed      = flag.Int64("seed", 1, "workload seed")
		classF    = flag.String("class", "conversational", "workload class: coding|conversational")
		maxTok    = flag.Int("max", 32, "max completion tokens per request")
		emit      = flag.String("emit", "", "write a synthetic trace CSV to this path and exit")
		hours     = flag.Int("hours", 24, "trace length in hours (with -emit)")
		peak      = flag.Float64("peak", 120, "peak requests/hour (with -emit)")
		trace     = flag.String("trace", "", "replay a trace CSV against the server")
		timescale = flag.Float64("timescale", 2000, "trace replay compression: simulated seconds per wall second")
	)
	flag.Parse()
	class := workload.ClassConversational
	if *classF == "coding" {
		class = workload.ClassCoding
	}
	modelList := splitModels(*modelsF)

	switch {
	case *emit != "":
		if len(modelList) == 0 {
			fatal(fmt.Errorf("-emit requires -models"))
		}
		emitTrace(*emit, modelList, class, *hours, *peak, *seed)
	case *trace != "":
		replayTrace(*trace, *addr, *conc, *maxTok, *timescale)
	default:
		if len(modelList) == 0 {
			fatal(fmt.Errorf("-models is required"))
		}
		closedLoop(*addr, modelList, class, *requests, *conc, *maxTok, *seed)
	}
}

func splitModels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

// emitTrace synthesizes a diurnal trace and writes it as CSV.
func emitTrace(path string, models []string, class workload.Class, hours int, peak float64, seed int64) {
	g := workload.NewGenerator(seed)
	// A canonical Monday 8 AM start: replay only uses relative times, and
	// business-hours traffic makes short traces non-empty.
	start := time.Date(2025, 11, 17, 8, 0, 0, 0, time.UTC)
	var reqs []workload.Request
	for i, model := range models {
		sub := g.Arrivals(class, model, start, start.Add(time.Duration(hours)*time.Hour),
			peak/float64(len(models)), 2.0)
		reqs = append(reqs, sub...)
		_ = i
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := workload.WriteTrace(f, reqs); err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: wrote %d requests (%d hours, peak %.0f/h) to %s\n", len(reqs), hours, peak, path)
}

// replayTrace fires a recorded trace at the server, compressing simulated
// gaps by timescale.
func replayTrace(path, addr string, conc, maxTok int, timescale float64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	reqs, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(reqs) == 0 {
		fatal(fmt.Errorf("trace %s is empty", path))
	}
	if timescale < 1 {
		timescale = 1
	}
	sched := workload.ReplaySchedule(reqs)
	cli := openai.NewClient("http://" + addr)
	fmt.Printf("loadgen: replaying %d requests spanning %v (compressed %gx)\n",
		len(reqs), sched[len(sched)-1].Round(time.Second), timescale)

	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	var mu sync.Mutex
	perModel := make(map[string][]time.Duration)
	errs := 0
	start := time.Now()
	for i, r := range reqs {
		wall := time.Duration(float64(sched[i]) / timescale)
		if sleep := wall - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r workload.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			out := r.OutputTokens
			if out > maxTok {
				out = maxTok
			}
			if out < 1 {
				out = 1
			}
			seedv := int64(i)
			t0 := time.Now()
			_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
				Model:     r.Model,
				Messages:  []ir.Message{{Role: "user", Content: "trace replay"}},
				Seed:      &seedv,
				MaxTokens: out,
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			perModel[r.Model] = append(perModel[r.Model], time.Since(t0))
		}(i, r)
	}
	wg.Wait()
	report(perModel, errs, time.Since(start))
}

// closedLoop sends a fixed number of requests round-robin across models.
func closedLoop(addr string, models []string, class workload.Class, requests, conc, maxTok int, seed int64) {
	gen := workload.NewGenerator(seed)
	cli := openai.NewClient("http://" + addr)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	var mu sync.Mutex
	perModel := make(map[string][]time.Duration)
	errs := 0
	start := time.Now()
	for i := 0; i < requests; i++ {
		model := models[i%len(models)]
		_, outTok := gen.Tokens(class)
		if outTok > maxTok {
			outTok = maxTok
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, model string, outTok int) {
			defer wg.Done()
			defer func() { <-sem }()
			seedv := int64(i)
			t0 := time.Now()
			_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
				Model:     model,
				Messages:  []ir.Message{{Role: "user", Content: "load generator request"}},
				Seed:      &seedv,
				MaxTokens: outTok,
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			perModel[model] = append(perModel[model], time.Since(t0))
		}(i, model, outTok)
	}
	wg.Wait()
	report(perModel, errs, time.Since(start))
}

// report prints per-model latency statistics.
func report(perModel map[string][]time.Duration, errs int, wall time.Duration) {
	total := errs
	for _, lats := range perModel {
		total += len(lats)
	}
	fmt.Printf("loadgen: %d requests in %v wall (%d errors)\n", total, wall.Round(time.Millisecond), errs)
	names := make([]string, 0, len(perModel))
	for m := range perModel {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		lats := perModel[m]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		fmt.Printf("  %-28s n=%-4d mean=%-10v p50=%-10v p99=%v\n",
			m, len(lats),
			(sum / time.Duration(len(lats))).Round(time.Millisecond),
			lats[len(lats)/2].Round(time.Millisecond),
			lats[(len(lats)*99)/100].Round(time.Millisecond))
	}
	if errs > 0 {
		os.Exit(1)
	}
}
