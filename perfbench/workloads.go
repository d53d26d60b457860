package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"swapservellm/internal/config"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name string
	// config is the deployment's source file, relative to the repository
	// root: a committed evaluation config or one this benchmark owns.
	config string
	// open selects an open loop (arrivals on a schedule); otherwise each
	// of nproc clients sends its next request when the last completes.
	open bool
	// next is a closed-loop client's i-th request; arrivals is the open
	// loop's schedule, starting at time of day phase (a fraction of the
	// day), as an iterator of (offset from start, request).
	next     func(seed int64, client, i int) request
	arrivals func(cfg config.Cluster, seed int64, phase float64) func() (time.Duration, request)
	// warm brings a freshly started deployment to its measured state.
	warm func(ctx context.Context, s *stack) error
	// limit is the TTFT a request must meet; sporadic-fleet uses the
	// class SLO from its config, the others a fixed limit.
	limit func(cfg config.Cluster, r request) time.Duration
	// replay is the request count of each replay in the traced run.
	replay int
	// segments is how many deployments a measured run boots and
	// measures in turn; setup_s is the median of their boots.
	segments int
}

// workloads are the runnable workloads. BENCHMARK.json gates the closed
// loops only: sporadic-fleet's simulated TTFT moves with host load (its
// median p90 shifted by 30% between two sets of ten runs of one binary),
// so it stays a workload to run and trace by hand.
var workloads = []*workload{sporadicFleet, swapRotation, frontdoorHot}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// loadConfig reads the workload's deployment and binds the gateway and
// nodes to ephemeral loopback ports.
func (w *workload) loadConfig(root string) (config.Cluster, error) {
	cfg, err := config.LoadCluster(filepath.Join(root, w.config))
	if err != nil {
		return cfg, err
	}
	cfg.Listen = "127.0.0.1:0"
	for i := range cfg.Nodes {
		cfg.Nodes[i].Listen = "127.0.0.1:0"
	}
	return cfg, nil
}

// words is the vocabulary generated prompts draw from.
var words = strings.Fields(`swap serve model weights checkpoint restore
	engine cluster gateway placement node cache token stream latency
	budget memory device snapshot tier chunk demand window predict`)

func prompt(rng *rand.Rand, tag string, minWords, maxWords int) string {
	n := minWords + rng.Intn(maxWords-minWords+1)
	parts := make([]string, 0, n+1)
	parts = append(parts, tag)
	for i := 0; i < n; i++ {
		parts = append(parts, words[rng.Intn(len(words))])
	}
	return strings.Join(parts, " ")
}

// ---- sporadic-fleet -------------------------------------------------

// Open loop over the nine-model, two-node deployment of slo.json. The
// arrival rate follows a diurnal curve compressed into fleetDaySec
// simulated seconds; each request's class comes from its model's tag.
const (
	fleetDaySec  = 1200.0
	fleetMeanRPS = 0.08 // mean arrivals per simulated second
)

// fleetClassShare is the share of arrivals per class; within a class,
// models are Zipf-weighted so some are hot and some go cold.
var fleetClassShare = []struct {
	class string
	share float64
	kind  kind
}{
	{"interactive", 0.5, kindChatSSE},
	{"standard", 0.3, kindOllamaChat},
	{"batch", 0.2, kindGenerate},
}

var sporadicFleet = &workload{
	name:   "sporadic-fleet",
	config: "evaluation/configs/slo.json",
	open:   true,
	replay: 40,
	// Twenty short deployments: how a deployment's history drifts with
	// the host scheduler varies widely, and its average over many
	// deployments is what repeats from run to run.
	segments: 20,
	arrivals: func(cfg config.Cluster, seed int64, phase float64) func() (time.Duration, request) {
		byClass := map[string][]string{}
		seen := map[string]bool{}
		for _, n := range cfg.Nodes {
			for _, m := range n.Models {
				if seen[m.Name] {
					continue
				}
				seen[m.Name] = true
				class := m.Class
				if class == "" {
					class = cfg.Scheduling.DefaultClass
				}
				byClass[class] = append(byClass[class], m.Name)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		peak := 1.8 * fleetMeanRPS
		start := phase * fleetDaySec
		t := start
		i := 0
		return func() (time.Duration, request) {
			// Thinning: candidate arrivals at the peak rate, kept with
			// probability rate(t)/peak.
			for {
				t += rng.ExpFloat64() / peak
				rate := fleetMeanRPS * (1 - 0.8*math.Cos(2*math.Pi*t/fleetDaySec))
				if rng.Float64()*peak < rate {
					break
				}
			}
			u := rng.Float64()
			c := fleetClassShare[len(fleetClassShare)-1]
			for _, cs := range fleetClassShare {
				if u < cs.share {
					c = cs
					break
				}
				u -= cs.share
			}
			r := request{
				kind:      c.kind,
				model:     zipf(rng, byClass[c.class]),
				prompt:    prompt(rng, fmt.Sprintf("fleet %d/%d:", seed, i), 4, 60),
				maxTokens: 2 + rng.Intn(7),
				seed:      seed,
				class:     c.class,
			}
			i++
			return time.Duration((t - start) * float64(time.Second)), r
		}
	},
	warm: func(ctx context.Context, s *stack) error {
		// Warm-up loads every model once, so measurement starts from the
		// steady state of a fleet whose models have all been served: the
		// later cold requests are keep-alive expiries and swap-ins, not
		// first loads from the weight store.
		if err := s.expectModels(ctx, 9); err != nil {
			return err
		}
		for _, n := range s.cfg.Nodes {
			for _, m := range n.Models {
				r := request{kind: kindChat, model: m.Name, prompt: "warm", maxTokens: 4, seed: 1}
				if o := s.cli.do(ctx, r, s.clock.Now()); !o.ok() {
					return fmt.Errorf("warm-up %s: %v", r.model, o.err)
				}
			}
		}
		return nil
	},
	limit: func(cfg config.Cluster, r request) time.Duration {
		c, _ := cfg.Scheduling.Class(r.class)
		return c.SLO()
	},
}

// zipf picks names[k] with weight 1/(k+1).
func zipf(rng *rand.Rand, names []string) string {
	var total float64
	for k := range names {
		total += 1 / float64(k+1)
	}
	u := rng.Float64() * total
	for k, n := range names {
		u -= 1 / float64(k+1)
		if u < 0 {
			return n
		}
	}
	return names[len(names)-1]
}

// ---- swap-rotation ---------------------------------------------------

// Closed loop on a vLLM fleet whose backends each reserve 90% of an
// 80 GiB GPU, so no two fit together. Client c rotates through the
// models of node c%2, so every request evicts the resident model
// (victim checkpoint) and restores its own (target restore).
var rotationModels = [][]string{
	{"llama3.2:1b-fp16", "llama3.1:8b-fp16", "deepseek-r1:14b-fp16"},
	{"llama3.2:3b-fp16", "deepseek-r1:7b-fp16", "gemma:7b-fp16"},
}

// rotationLimit is swap-rotation's fixed TTFT limit: half as much again
// as a steady-state exchange, which takes about 10 s at the p90.
const rotationLimit = 15 * time.Second

var swapRotation = &workload{
	name:   "swap-rotation",
	config: "perfbench/configs/swap-rotation.json",
	replay: 12,
	// Few segments: the first exchange of a deployment, with both
	// clients starting at once, is slower than the steady state.
	segments: 5,
	next: func(seed int64, client, i int) request {
		rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(i)))
		models := rotationModels[client%len(rotationModels)]
		kinds := []kind{kindChatSSE, kindOllamaChat, kindChat}
		return request{
			kind:      kinds[(i/len(models))%len(kinds)],
			model:     models[(i+1)%len(models)],
			prompt:    prompt(rng, fmt.Sprintf("rotate %d/%d/%d:", seed, client, i), 4, 60),
			maxTokens: 4 + rng.Intn(13),
			seed:      seed,
		}
	},
	warm: func(ctx context.Context, s *stack) error {
		// Go once round the rotation and back to its first model, so every
		// model has been loaded and checkpointed once: each later request
		// swaps between images the checkpoint store already holds.
		for i := 0; i <= len(rotationModels[0]); i++ {
			for c, models := range rotationModels {
				m := models[i%len(models)]
				r := request{kind: kindChat, model: m, prompt: fmt.Sprintf("warm %d %d", c, i), maxTokens: 4, seed: 1}
				if o := s.cli.do(ctx, r, s.clock.Now()); !o.ok() {
					return fmt.Errorf("warm-up %s: %v", r.model, o.err)
				}
			}
		}
		return nil
	},
	limit: func(config.Cluster, request) time.Duration { return rotationLimit },
}

// ---- frontdoor-hot ---------------------------------------------------

// Closed loop on two small Ollama models kept warm on two nodes, behind
// admission control and the prewarmer. Each client cycles through every
// endpoint family and both wire protocols.
// A share of requests draw from a small hot prompt pool, so buffered
// repeats hit the response cache and pooled streams have buffered twins
// to be checked against; the rest carry unique prompts and miss. Prompt
// lengths vary, so prefill time — and with it TTFT — varies from request
// to request.
var (
	hotModels = []string{"llama3.2:3b-fp16", "gemma3:4b-fp16"}
	hotCycle  = []kind{kindChat, kindChatSSE, kindOllamaChat, kindGenerate, kindEmbed, kindRerank}
)

const (
	hotPool      = 8   // prompts in the hot pool
	hotShare     = 0.6 // share of requests drawn from the pool
	hotMaxTokens = 8
	hotLimit     = 500 * time.Millisecond
)

var frontdoorHot = &workload{
	name:     "frontdoor-hot",
	config:   "perfbench/configs/frontdoor-hot.json",
	replay:   120,
	segments: 5,
	next: func(seed int64, client, i int) request {
		rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(i)))
		k := hotCycle[(i+client)%len(hotCycle)]
		r := request{
			kind:      k,
			model:     hotModels[(i/len(hotCycle)+client)%len(hotModels)],
			maxTokens: hotMaxTokens,
			seed:      seed,
		}
		if rng.Float64() < hotShare {
			// The pool's prompts are fixed per seed: pool entry p always
			// has the same words, so repeats are byte-identical.
			p := rng.Intn(hotPool)
			r.prompt = prompt(rand.New(rand.NewSource(seed*31+int64(p))), fmt.Sprintf("hot %d:", p), 8, 120)
		} else {
			r.prompt = prompt(rng, fmt.Sprintf("cold %d/%d/%d:", seed, client, i), 8, 120)
			r.maxTokens = 4 + rng.Intn(9)
		}
		return r
	},
	warm: func(ctx context.Context, s *stack) error {
		for _, m := range hotModels {
			r := request{kind: kindChat, model: m, prompt: "warm", maxTokens: 4, seed: 1}
			if o := s.cli.do(ctx, r, s.clock.Now()); !o.ok() {
				return fmt.Errorf("warm-up %s: %v", m, o.err)
			}
		}
		return nil
	},
	limit: func(config.Cluster, request) time.Duration { return hotLimit },
}

// expectModels checks the gateway's model listing names n models.
func (s *stack) expectModels(ctx context.Context, n int) error {
	body, err := s.cli.get(ctx, "/v1/models")
	if err != nil {
		return err
	}
	var v struct {
		Data []struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("/v1/models: %w", err)
	}
	if len(v.Data) != n {
		return fmt.Errorf("/v1/models lists %d models, want %d", len(v.Data), n)
	}
	return nil
}
