package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden pins every flag's name, default and usage text against
// the listing recorded from the binary before its boot sequence moved
// into internal/tier.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("reduxgw", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if want, err := os.ReadFile("testdata/flags.golden"); err != nil || got.String() != string(want) {
		t.Errorf("flags drifted from testdata/flags.golden (%v):\n%s", err, got.String())
	}
}
