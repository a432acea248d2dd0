package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cloudmirror/internal/lint"
	"cloudmirror/internal/lint/linttest"
)

// grepRules reproduces the five regexes of the retired api-check grep
// body, with the place-admission rule naming the surviving admission
// API (NewAdmitter, Admitter, Admitted). The parity tests prove that
// every breach the greps caught is still caught by apibound, and that the
// breaches the greps provably missed (aliased imports, laundering
// helpers) are caught now.
var grepRules = map[string]*regexp.Regexp{
	"cluster":         regexp.MustCompile(`"cloudmirror/internal/cluster"`),
	"place-admission": regexp.MustCompile(`place\.(NewAdmitter|Admitter|Admitted)\b`),
	"placer":          regexp.MustCompile(`"cloudmirror/internal/place/(cloudmirror|oktopus|secondnet)"`),
	"enforcement":     regexp.MustCompile(`"cloudmirror/internal/(enforce|netem|dataplane)"`),
	"wal":             regexp.MustCompile(`"cloudmirror/internal/wal"`),
}

// fixtureSource reads one fixture file's raw text, the input the old
// greps operated on.
func fixtureSource(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", filepath.FromSlash(path)))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return string(data)
}

// ruleFindings runs apibound over one fixture package and returns the
// findings mentioning the named rule.
func ruleFindings(t *testing.T, pkg, rule string) []string {
	t.Helper()
	var msgs []string
	for _, f := range linttest.Findings(t, lint.APIBoundAnalyzer, pkg) {
		if strings.Contains(f.Message, "the "+rule+" boundary") {
			msgs = append(msgs, f.Message)
		}
	}
	return msgs
}

// TestAPIBoundParityWithGrep checks, rule by rule, that a fixture the
// old grep caught is also caught by the analyzer.
func TestAPIBoundParityWithGrep(t *testing.T) {
	cases := []struct {
		rule string
		pkg  string
		file string
	}{
		{"cluster", "cloudmirror/cmd/direct", "cloudmirror/cmd/direct/main.go"},
		{"place-admission", "cloudmirror/cmd/plain", "cloudmirror/cmd/plain/main.go"},
		{"placer", "cloudmirror/cmd/placers", "cloudmirror/cmd/placers/main.go"},
		{"enforcement", "cloudmirror/cmd/enforcei", "cloudmirror/cmd/enforcei/main.go"},
		{"wal", "cloudmirror/internal/walclient", "cloudmirror/internal/walclient/fixture.go"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			if !grepRules[tc.rule].MatchString(fixtureSource(t, tc.file)) {
				t.Fatalf("grep rule %s does not match %s: the parity fixture no longer reproduces the grep-caught shape", tc.rule, tc.file)
			}
			if msgs := ruleFindings(t, tc.pkg, tc.rule); len(msgs) == 0 {
				t.Fatalf("apibound reports no %s finding for %s, but the old grep caught it", tc.rule, tc.pkg)
			}
		})
	}
}

// TestGrepMissesAliasedImport proves the case the issue names: an
// aliased import (pl.NewAdmitter) defeats the textual
// place\.NewAdmitter grep but not the type-resolved object check.
func TestGrepMissesAliasedImport(t *testing.T) {
	src := fixtureSource(t, "cloudmirror/cmd/aliased/main.go")
	if grepRules["place-admission"].MatchString(src) {
		t.Fatalf("grep unexpectedly matches the aliased fixture; it no longer demonstrates the miss")
	}
	if msgs := ruleFindings(t, "cloudmirror/cmd/aliased", "place-admission"); len(msgs) == 0 {
		t.Fatalf("apibound misses the aliased admitter reference grep also misses")
	}
}

// TestGrepMissesLaunderedImport proves the transitive case: reaching
// the cluster through an intermediary helper matches none of the five
// greps, but the import-graph walk reports the chain.
func TestGrepMissesLaunderedImport(t *testing.T) {
	src := fixtureSource(t, "cloudmirror/cmd/launder/main.go")
	for rule, re := range grepRules {
		if re.MatchString(src) {
			t.Fatalf("grep rule %s unexpectedly matches the laundering fixture", rule)
		}
	}
	if msgs := ruleFindings(t, "cloudmirror/cmd/launder", "cluster"); len(msgs) == 0 {
		t.Fatalf("apibound misses the laundered cluster import every grep also misses")
	}
}

// TestGrepFalseExclusionStaysSanctioned pins the wal allow list:
// cmd/bwd's direct WAL import was grep-excluded by path and stays
// sanctioned as rule data.
func TestGrepFalseExclusionStaysSanctioned(t *testing.T) {
	src := fixtureSource(t, "cloudmirror/cmd/bwd/main.go")
	if !grepRules["wal"].MatchString(src) {
		t.Fatalf("cmd/bwd fixture no longer imports the WAL")
	}
	if msgs := ruleFindings(t, "cloudmirror/cmd/bwd", "wal"); len(msgs) != 0 {
		t.Fatalf("apibound flags the allow-listed cmd/bwd WAL import: %v", msgs)
	}
}
