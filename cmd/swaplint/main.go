// Command swaplint runs the repository's static-analysis suite
// (internal/lint): clockcheck, sitecheck, gatecheck and lockorder.
//
//	go run ./cmd/swaplint ./...
//	go run ./cmd/swaplint -json ./...            # machine-readable findings
//	go run ./cmd/swaplint -only gatecheck ./...  # report one analyzer's findings
//
// exits 0 when clean, 1 when findings are reported, 2 on usage or load
// errors. One run loads every package the patterns name, so the
// interprocedural analyzers see the whole module. Every run checks the
// //swaplint directives against the whole suite; -only narrows the
// analyzers' findings, not that check.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/clockcheck"
	"swapservellm/internal/lint/gatecheck"
	"swapservellm/internal/lint/lockorder"
	"swapservellm/internal/lint/sitecheck"
)

// selectAnalyzers parses the comma-separated names in only into the
// set of analyzers whose findings to report (nil reports all).
func selectAnalyzers(all []*lint.Analyzer, only string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	out := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out[name] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	// Directive findings do not belong to any one analyzer.
	out["swaplint"] = true
	return out, nil
}

// jsonDiagnostic is the -json output record, one per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	args := os.Args[1:]
	jsonOut := false
	only := ""
	var patterns []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "-only" || a == "--only":
			if i+1 >= len(args) {
				fmt.Fprintf(os.Stderr, "swaplint: -only requires a comma-separated analyzer list\n")
				os.Exit(2)
			}
			i++
			only = args[i]
		case strings.HasPrefix(a, "-only="):
			only = strings.TrimPrefix(a, "-only=")
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "usage: swaplint [-json] [-only analyzer,...] [packages]\n")
			os.Exit(2)
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	all := []*lint.Analyzer{clockcheck.New(), sitecheck.New(), gatecheck.New(), lockorder.New()}
	selected, err := selectAnalyzers(all, only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swaplint: %v\n", err)
		os.Exit(2)
	}

	fset, pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swaplint: %v\n", err)
		os.Exit(2)
	}
	var diags []lint.Diagnostic
	for _, d := range lint.NewRunner(all...).Run(fset, pkgs) {
		if selected == nil || selected[d.Analyzer] {
			diags = append(diags, d)
		}
	}
	if jsonOut {
		records := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			d = rel(d)
			records = append(records, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "swaplint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(rel(d))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// rel shortens an absolute filename to the working directory for
// readable output.
func rel(d lint.Diagnostic) lint.Diagnostic {
	if wd, err := os.Getwd(); err == nil && d.Pos.Filename != "" {
		if r, rerr := filepath.Rel(wd, d.Pos.Filename); rerr == nil && !strings.HasPrefix(r, "..") {
			d.Pos.Filename = r
		}
	}
	return d
}
