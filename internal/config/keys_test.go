package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unshippedKeys are the keys no shipped config sets, each with the
// reason it is still a knob. Keys are "<Go struct>.<json key>".
var unshippedKeys = map[string]string{
	"Global.auth_token":       "credential: each deployment brings its own",
	"Model.image":             "deployment setting: defaults to the engine's image",
	"Model.init_timeout_sec":  "safety bound on a hung engine initialization",
	"Model.keep_warm":         "the elasticity and pipeline experiments set it",
	"Node.listen":             "deployment setting: a node binds an ephemeral loopback port by default",
	"ProxyCfg.cache_disabled": "the protomix experiment's cache-off arm",
	"SchedCfg.ttl_sec":        "the ChaosSchedSoak experiment sets it",
}

// shippedConfigDirs hold the configurations the repository ships.
var shippedConfigDirs = []string{
	filepath.Join("..", "..", "evaluation", "configs"),
	filepath.Join("..", "..", "perfbench", "configs"),
}

// TestKeyCensus checks that every key Config and Cluster parse earns its
// place: a shipped config sets it, or unshippedKeys says why it is a
// knob. A section key (a struct or a list of structs) is covered when
// one of its own keys is. An unshippedKeys entry a shipped file sets,
// or that names no key, is stale and fails too.
func TestKeyCensus(t *testing.T) {
	keys := map[string]reflect.Type{} // key -> its section's type, nil for a leaf
	collectKeys(reflect.TypeOf(Config{}), keys)
	collectKeys(reflect.TypeOf(Cluster{}), keys)

	set := map[string]bool{}
	files := 0
	for _, dir := range shippedConfigDirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no shipped configs in %s (%v)", dir, err)
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			schema := reflect.TypeOf(Config{})
			if _, ok := doc["nodes"]; ok {
				schema = reflect.TypeOf(Cluster{})
			}
			markSet(doc, schema, set)
			files++
		}
	}

	var covered func(key string) bool
	covered = func(key string) bool {
		if set[key] || unshippedKeys[key] != "" {
			return true
		}
		section := keys[key]
		if section == nil {
			return false
		}
		for k := range keys {
			if strings.HasPrefix(k, section.Name()+".") && covered(k) {
				return true
			}
		}
		return false
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if !covered(k) {
			t.Errorf("key %s: no shipped config sets it and unshippedKeys gives no reason for it", k)
		}
	}
	for k := range unshippedKeys {
		if _, ok := keys[k]; !ok {
			t.Errorf("unshippedKeys names %s, which is no key", k)
		} else if set[k] {
			t.Errorf("unshippedKeys names %s, which a shipped config sets", k)
		}
	}
	t.Logf("%d keys, %d set by %d shipped configs, %d allowlisted", len(keys), len(set), files, len(unshippedKeys))
}

// elemStruct returns t's struct type, seen through slices and pointers,
// or nil when t holds no struct.
func elemStruct(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Slice || t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() == reflect.Struct && t.PkgPath() == reflect.TypeOf(Config{}).PkgPath() {
		return t
	}
	return nil
}

// jsonKey returns a struct field's JSON key ("" for an untagged field).
func jsonKey(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// collectKeys records every JSON key of struct type t and of the
// structs it nests.
func collectKeys(t reflect.Type, keys map[string]reflect.Type) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := jsonKey(f)
		if name == "" {
			continue
		}
		key := t.Name() + "." + name
		if _, seen := keys[key]; seen {
			continue
		}
		sub := elemStruct(f.Type)
		keys[key] = sub
		if sub != nil {
			collectKeys(sub, keys)
		}
	}
}

// markSet records the keys doc, a decoded JSON value of type t, sets.
func markSet(doc any, t reflect.Type, set map[string]bool) {
	switch v := doc.(type) {
	case []any:
		for _, e := range v {
			markSet(e, t, set)
		}
	case map[string]any:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			val, ok := v[jsonKey(f)]
			if !ok {
				continue
			}
			set[t.Name()+"."+jsonKey(f)] = true
			if sub := elemStruct(f.Type); sub != nil {
				markSet(val, sub, set)
			}
		}
	}
}

// TestDeletedKeysReported checks that a configuration still setting a
// key this package no longer carries fails to parse with an error that
// names the key, instead of the key being silently ignored.
func TestDeletedKeysReported(t *testing.T) {
	cases := []struct {
		key, doc string
		cluster  bool
	}{
		{"snapshot_spill", `{"global": {"snapshot_host_cap_gib": 40, "snapshot_spill": true}}`, false},
		{"snapshot_spill", `{"global": {"snapshot_spill": true}, "nodes": []}`, true},
		{"compile_cache", `{"global": {"compile_cache": true}}`, false},
		{"swap_chunk_mib", `{"global": {"swap_chunk_mib": 256}}`, false},
		{"queue_capacity", `{"models": [{"name": "llama3.2:1b-fp16", "queue_capacity": 8}]}`, false},
		{"storage_tier", `{"models": [{"name": "llama3.2:1b-fp16", "storage_tier": "tmpfs"}]}`, false},
		{"predictor_window_sec", `{"scheduling": {"predictor_window_sec": 600}}`, true},
		{"predictor_bucket_min", `{"scheduling": {"predictor_bucket_min": 15}}`, true},
		{"cache_entries", `{"proxy": {"cache_entries": 64}}`, true},
	}
	for _, tc := range cases {
		var err error
		if tc.cluster {
			_, err = ParseCluster(strings.NewReader(tc.doc))
		} else {
			_, err = Parse(strings.NewReader(tc.doc))
		}
		if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("%s: err = %v, want one naming the key", tc.doc, err)
		}
	}
}
