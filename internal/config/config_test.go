package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/models"
)

func validConfig() Config {
	cfg := Default()
	cfg.Models = []Model{
		{Name: "llama3.2:1b-fp16", Engine: "ollama"},
		{Name: "deepseek-r1:14b-fp16", Engine: "vllm"},
	}
	return cfg
}

func TestValidateFillsDefaults(t *testing.T) {
	cfg := validConfig()
	if err := cfg.Validate(models.Default()); err != nil {
		t.Fatal(err)
	}
	m := cfg.Models[0]
	if len(m.GPUs) != 1 || m.GPUs[0] != 0 {
		t.Errorf("GPUs default = %v", m.GPUs)
	}
	if !strings.Contains(m.Image, "ollama") {
		t.Errorf("default image = %q", m.Image)
	}
	if !strings.Contains(cfg.Models[1].Image, "vllm") {
		t.Errorf("default vllm image = %q", cfg.Models[1].Image)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty listen", func(c *Config) { c.Listen = "" }},
		{"bad testbed", func(c *Config) { c.Testbed = "v100" }},
		{"no models", func(c *Config) { c.Models = nil }},
		{"zero queue", func(c *Config) { c.Global.QueueCapacity = 0 }},
		{"negative timeout", func(c *Config) { c.Global.ResponseTimeoutSec = -1 }},
		{"bad tier", func(c *Config) { c.Global.StorageTier = "tape" }},
		{"unknown model", func(c *Config) { c.Models[0].Name = "nonexistent:1b" }},
		{"missing model name", func(c *Config) { c.Models[0].Name = "" }},
		{"duplicate model", func(c *Config) { c.Models[1] = c.Models[0] }},
		{"bad engine", func(c *Config) { c.Models[0].Engine = "llamafile" }},
		{"util > 1", func(c *Config) { c.Models[0].GPUMemoryUtilization = 1.5 }},
		{"negative gpu", func(c *Config) { c.Models[0].GPUs = []int{-1} }},
		{"huge gpu index", func(c *Config) { c.Models[0].GPUs = []int{99} }},
		{"negative init timeout", func(c *Config) { c.Models[0].InitTimeoutSec = -3 }},
	}
	for _, c := range cases {
		cfg := validConfig()
		c.mut(&cfg)
		if err := cfg.Validate(models.Default()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseJSON(t *testing.T) {
	in := `{
		"listen": "127.0.0.1:9001",
		"testbed": "a100",
		"global": {"response_timeout_sec": 30, "queue_capacity": 8, "use_sleep_mode": true, "storage_tier": "tmpfs"},
		"models": [
			{"name": "deepseek-r1:7b-q4", "engine": "ollama", "gpus": [0], "keep_warm": true}
		]
	}`
	cfg, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(models.Default()); err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:9001" || cfg.Testbed != "a100" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if !cfg.Global.UseSleepMode || cfg.Global.QueueCapacity != 8 || cfg.Global.StorageTier != "tmpfs" {
		t.Fatalf("global = %+v", cfg.Global)
	}
	if !cfg.Models[0].KeepWarm {
		t.Fatalf("model = %+v", cfg.Models[0])
	}
	if cfg.ResponseTimeout() != 30*time.Second {
		t.Fatalf("timeout = %v", cfg.ResponseTimeout())
	}
}

func TestParseUnknownField(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"liisten": "x"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	content := `{"models": [{"name": "llama3.2:1b-fp16", "engine": "vllm"}]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Defaults applied.
	if cfg.Listen != "127.0.0.1:0" || cfg.Testbed != "h100" {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestInitTimeout(t *testing.T) {
	m := Model{InitTimeoutSec: 2.5}
	if m.InitTimeout() != 2500*time.Millisecond {
		t.Fatalf("InitTimeout = %v", m.InitTimeout())
	}
	var zero Model
	if zero.InitTimeout() != 0 {
		t.Fatal("zero timeout should be 0")
	}
}
