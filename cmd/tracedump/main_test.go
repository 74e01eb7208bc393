package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

// TestFigure4Golden pins the dump of the paper's Figure 4 program byte for
// byte, at -depth 8 (four server rounds) and at the default depth.
// Every node the program's trace holds has a SYS_* line of its own, so a
// node kind that reaches the dump's default arm prints its Go type and
// stops the dump there, and the comparison fails.
func TestFigure4Golden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/depth8.golden", []string{"-depth", "8"}},
		{"testdata/default.golden", nil},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runMain(t, tc.args); !bytes.Equal(got, want) {
			t.Errorf("tracedump %v printed\n%s\nwant (%s)\n%s", tc.args, got, tc.golden, want)
		}
	}
}

// runMain runs main with args on a fresh flag set and returns what it
// printed.
func runMain(t *testing.T, args []string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout, argv, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, argv, flags }()
	os.Stdout, os.Args = w, append([]string{"tracedump"}, args...)
	flag.CommandLine = flag.NewFlagSet("tracedump", flag.PanicOnError)
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	w.Close()
	return <-out
}
