package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"

	"spooftrack/internal/fault"
)

// TestFlagSurface pins the daemon's flag names against a golden
// captured from the pre-skeleton binary's -h: restructuring how flags
// are parsed must not add, drop or rename one. The -fault-profile help
// is built from the profile catalogue, so it names every profile.
func TestFlagSurface(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h should return flag.ErrHelp")
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		names = append(names, m[1])
	}
	if len(names) != 44 {
		t.Errorf("%d flags, want 44", len(names))
	}
	goldenBody(t, "flags.golden", strings.Join(names, "\n")+"\n")
	for _, profile := range fault.Names() {
		if !strings.Contains(usage.String(), profile) {
			t.Errorf("-h does not name fault profile %q", profile)
		}
	}
}

// TestParseFlagsRejects: a bad invocation is an error for main to
// report, never an exit in place.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"shards+shard-id", []string{"-shards", "2", "-shard-id", "s0"}, "mutually exclusive"},
		{"shards+controller", []string{"-shards", "2", "-controller", "s0=http://h:1"}, "mutually exclusive"},
		{"shard-id+controller", []string{"-shard-id", "s0", "-controller", "s0=http://h:1"}, "mutually exclusive"},
		{"log level", []string{"-log-level", "verbose"}, "unknown -log-level"},
		{"controller without url", []string{"-controller", "s0"}, "want id=http://host:port"},
		{"controller without id", []string{"-controller", "=http://h:1"}, "want id=http://host:port"},
		{"controller empty", []string{"-controller", ","}, "no shards"},
		{"unknown flag", []string{"-relay"}, "not defined"},
	} {
		if _, err := parseFlags(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: parseFlags(%q) = %v, want an error containing %q", tc.name, tc.args, err, tc.want)
		}
	}
	cfg, err := parseFlags([]string{"-controller", "a=http://h:1, b=http://h:2"}, io.Discard)
	if err != nil || len(cfg.place.peerIDs) != 2 || cfg.place.shards != 0 || cfg.place.shardID != "" {
		t.Fatalf("valid -controller spec: %+v, %v", cfg.place, err)
	}
}
