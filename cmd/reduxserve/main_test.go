package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testkit"
)

// TestFlagsGolden pins every flag's name, default and usage text against
// the listing recorded from the binary before run() was extracted from
// main.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("reduxserve", flag.ContinueOnError)
	new(config).register(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if want, err := os.ReadFile("testdata/flags.golden"); err != nil || got.String() != string(want) {
		t.Errorf("flags drifted from testdata/flags.golden (%v):\n%s", err, got.String())
	}
}

// parse builds a config the way main does, from a command line.
func parse(args ...string) (config, error) {
	fs := flag.NewFlagSet("reduxserve", flag.ContinueOnError)
	var c config
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, c.validate(fs)
}

// tiny are the sizes every run test drives.
var tiny = []string{"-jobs", "40", "-clients", "4", "-scale", "0.05", "-workers", "2", "-procs", "4"}

// TestRunModes drives run at tiny sizes in every stream shape and
// through every tier, and checks the report: no failures, every sampled
// result bit-exact against the sequential reference, each tenant's
// offered jobs attributed to it by the serving tier, every delta batch
// served through a session, and the -json key set recorded from the
// binary before run() was extracted (testdata/json_keys.golden).
func TestRunModes(t *testing.T) {
	golden := readKeyGolden(t)
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{})
	modes := []struct {
		name string
		args []string
	}{
		{"mixed", nil},
		{"zipf", []string{"-zipf"}},
		{"drift", []string{"-drift"}},
		{"sessions", []string{"-sessions", "2"}},
		{"tenants", []string{"-tenants", "a:2,b:1"}},
		{"gateway", []string{"-gateway", "2"}},
		{"remote", []string{"-remote", d.Addr, "-zipf", "-jobs", "40", "-clients", "4", "-scale", "0.05"}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			args := append(slices.Clone(tiny), m.args...)
			if m.name == "remote" {
				args = m.args // engine-shape flags are rejected in remote mode
			}
			cfg, err := parse(args...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failures != 0 || !rep.Verified {
				t.Fatalf("failures %d, verified %v", rep.Failures, rep.Verified)
			}
			if cfg.sessions > 0 && rep.Engine.SessionJobs != uint64(cfg.jobs) {
				t.Errorf("session jobs %d, want %d", rep.Engine.SessionJobs, cfg.jobs)
			}
			offered := 0
			for _, tr := range rep.Tenants {
				offered += tr.Offered
				if tr.Jobs != uint64(tr.Offered) {
					t.Errorf("tenant %s: offered %d, server attributed %d", tr.Name, tr.Offered, tr.Jobs)
				}
			}
			if len(rep.Tenants) != len(cfg.tenants) || (len(cfg.tenants) > 0 && offered != cfg.jobs) {
				t.Errorf("tenant rows %+v do not offer the %d jobs", rep.Tenants, cfg.jobs)
			}
			for suffix, keys := range reportKeys(t, rep) {
				if want := golden[m.name+suffix]; keys != want {
					t.Errorf("-json keys%s:\n got %s\nwant %s", suffix, keys, want)
				}
			}
		})
	}
}

// readKeyGolden reads testdata/json_keys.golden: one line per report
// object, "<mode>[.tenants] <sorted keys>".
func readKeyGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/json_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		mode, keys, _ := strings.Cut(sc.Text(), " ")
		out[mode] = keys
	}
	return out
}

// reportKeys returns the sorted key sets of rep's JSON form: "" for the
// report, ".tenants" for a tenant row when there are any.
func reportKeys(t *testing.T, rep report) map[string]string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"": strings.Join(slices.Sorted(maps.Keys(top)), " ")}
	if raw, ok := top["tenants"]; ok {
		var rows []map[string]json.RawMessage
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatal(err)
		}
		out[".tenants"] = strings.Join(slices.Sorted(maps.Keys(rows[0])), " ")
	}
	return out
}

// TestValidateMessages pins a sample of the rejections main prints
// after "reduxserve: ".
func TestValidateMessages(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-procs", "65"}, "-procs must be in [1,64], got 65"},
		{[]string{"-scale", "0"}, "-scale must be positive, got 0"},
		{[]string{"-clients", "0"}, "-jobs, -clients, -workers and -conns must be at least 1"},
		{[]string{"-zipf", "-drift"}, "-zipf and -drift are exclusive stream shapes"},
		{[]string{"-gateway", "2", "-remote", "x:1"}, "-gateway spawns its own backends; it cannot be combined with -remote"},
		{[]string{"-sessions", "2", "-gateway", "1"}, "the gateway tier does not forward sessions; drive reduxd directly"},
		{[]string{"-sessions", "5", "-jobs", "4"}, "-sessions (5) needs at least one delta batch each, but -jobs is 4"},
		{[]string{"-tenants", "a,b", "-zipf"}, "-tenants is its own stream shape; it cannot be combined with -zipf, -drift or -sessions"},
		{[]string{"-tenants", "a,b", "-gateway", "1"}, "the gateway forwards jobs under the default identity; drive reduxd directly in tenant mode"},
		{[]string{"-remote", "x:1", "-workers", "2"}, "-workers configures the in-process engine; set it on reduxd in remote mode"},
	} {
		if _, err := parse(tc.args...); err == nil || err.Error() != tc.want {
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestTextReportFollowsStatsFields: a row added to engine.StatsFields
// reaches the text report with no edit to this command.
func TestTextReportFollowsStatsFields(t *testing.T) {
	saved := engine.StatsFields
	t.Cleanup(func() { engine.StatsFields = saved })
	engine.StatsFields = append(slices.Clip(saved), obs.Field[engine.Stats]{
		Kind: obs.Setting, Series: "redux_engine_probe", Key: "probe_row",
		U64: func(s *engine.Stats) *uint64 { return &s.Jobs },
	})
	var out bytes.Buffer
	if err := printHuman(&out, report{Engine: engine.Stats{Jobs: 7}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "probe_row=7") {
		t.Errorf("new row missing from the text report:\n%s", out.String())
	}
}
