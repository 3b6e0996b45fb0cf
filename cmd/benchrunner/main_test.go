package main

import "testing"

// TestMachineDiff pins when bench-compare prints deltas: only against a
// baseline whose fingerprint matches on CPU, GOMAXPROCS and Go version.
func TestMachineDiff(t *testing.T) {
	here := &machine{CPU: "Xeon", GOMAXPROCS: 2, GoVersion: "go1.24.0", GitRev: "abc"}
	cases := []struct {
		name string
		base *machine
		want string
	}{
		{"same machine", &machine{CPU: "Xeon", GOMAXPROCS: 2, GoVersion: "go1.24.0", GitRev: "abc"}, ""},
		{"other rev compares", &machine{CPU: "Xeon", GOMAXPROCS: 2, GoVersion: "go1.24.0", GitRev: "def+dirty"}, ""},
		{"unfingerprinted", nil, "baseline has no machine fingerprint"},
		{"cpu", &machine{CPU: "EPYC", GOMAXPROCS: 2, GoVersion: "go1.24.0"}, `cpu "EPYC" vs "Xeon"`},
		{"gomaxprocs", &machine{CPU: "Xeon", GOMAXPROCS: 8, GoVersion: "go1.24.0"}, "gomaxprocs 8 vs 2"},
		{"go version", &machine{CPU: "Xeon", GOMAXPROCS: 2, GoVersion: "go1.22.5"}, "go go1.22.5 vs go1.24.0"},
		{"all three", &machine{CPU: "EPYC", GOMAXPROCS: 8, GoVersion: "go1.22.5"},
			`cpu "EPYC" vs "Xeon", gomaxprocs 8 vs 2, go go1.22.5 vs go1.24.0`},
	}
	for _, c := range cases {
		if got := machineDiff(c.base, here); got != c.want {
			t.Errorf("%s: machineDiff = %q, want %q", c.name, got, c.want)
		}
	}
}
