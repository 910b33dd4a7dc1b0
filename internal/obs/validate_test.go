package obs

import (
	"strings"
	"testing"
)

func validateStr(t *testing.T, trace string) (*TraceSummary, error) {
	t.Helper()
	return Validate(strings.NewReader(trace))
}

func TestValidateGoodTrace(t *testing.T) {
	trace := `{"type":"run","app":"q7","workers":8,"seed":1}
{"type":"span","id":1,"parent":0,"name":"extract","seq":-1,"start_us":0,"dur_us":10}

{"type":"span","id":2,"parent":1,"name":"filters","seq":0,"start_us":1,"dur_us":5}
{"type":"probe","phase":"filters","phase_seq":4,"kind":"exec","fp":"ab","cache":"miss","digest":"12","rows":1,"worker":1,"probe":0,"seq":0,"ts_us":3,"dur_us":2}
{"type":"probe","phase":"filters","phase_seq":4,"kind":"exec","fp":"ab","cache":"hit","digest":"12","rows":1,"worker":2,"probe":1,"seq":1,"ts_us":4,"dur_us":0}
{"type":"probe","phase":"from-clause","phase_seq":1,"kind":"rename","table":"orders","cache":"bypass","err":"no such table","worker":0,"probe":0,"seq":2,"ts_us":5,"dur_us":1}
`
	sum, err := validateStr(t, trace)
	if err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	if sum.Spans != 2 || sum.Probes != 3 || sum.Hits != 1 || sum.Misses != 1 || sum.Bypass != 1 {
		t.Fatalf("summary wrong: %s", sum)
	}
	if sum.Executed() != 2 {
		t.Fatalf("executed = %d, want 2", sum.Executed())
	}
	if !strings.Contains(sum.String(), "probes=3") {
		t.Errorf("summary string: %s", sum)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]string{
		"unknown type":       `{"type":"metric"}`,
		"not json":           `]`,
		"header without app": `{"type":"run"}`,
		"span without name":  `{"type":"span","id":1}`,
		"span id zero":       `{"type":"span","id":0,"name":"x"}`,
		"duplicate span id": `{"type":"span","id":1,"name":"x"}
{"type":"span","id":1,"name":"y"}`,
		"orphan parent":        `{"type":"span","id":2,"parent":9,"name":"x"}`,
		"negative span time":   `{"type":"span","id":1,"name":"x","dur_us":-1}`,
		"probe without phase":  `{"type":"probe","kind":"exec","cache":"miss"}`,
		"unknown kind":         `{"type":"probe","phase":"p","kind":"guess","cache":"miss"}`,
		"unknown cache":        `{"type":"probe","phase":"p","kind":"exec","cache":"maybe"}`,
		"retired cache off":    `{"type":"probe","phase":"p","kind":"exec","cache":"off"}`,
		"retired cache none":   `{"type":"probe","phase":"p","kind":"rename","table":"t","cache":"none"}`,
		"rename without table": `{"type":"probe","phase":"p","kind":"rename","cache":"bypass"}`,
		"hit without fp":       `{"type":"probe","phase":"p","kind":"exec","cache":"hit"}`,
		"odd hex fp":           `{"type":"probe","phase":"p","kind":"exec","cache":"miss","fp":"abc"}`,
		"uppercase digest":     `{"type":"probe","phase":"p","kind":"exec","cache":"miss","digest":"AB"}`,
		"negative rows":        `{"type":"probe","phase":"p","kind":"exec","cache":"miss","rows":-1}`,
		"err and digest":       `{"type":"probe","phase":"p","kind":"exec","cache":"miss","digest":"ab","err":"boom"}`,
		"negative probe time":  `{"type":"probe","phase":"p","kind":"exec","cache":"miss","dur_us":-5}`,
	}
	for name, line := range cases {
		if _, err := validateStr(t, line+"\n"); err == nil {
			t.Errorf("%s: accepted %s", name, line)
		}
	}
}

func TestIsHex(t *testing.T) {
	for s, want := range map[string]bool{
		"": true, "ab": true, "00ff": true,
		"abc": false, "AB": false, "zz": false, "a ": false,
	} {
		if got := isHex(s); got != want {
			t.Errorf("isHex(%q) = %v, want %v", s, got, want)
		}
	}
}
