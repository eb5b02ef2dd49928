package experiments

import (
	"strings"
	"testing"
)

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E4a", "E4b", "E5", "E5a",
		"E6", "E6a", "E7", "E7a", "E8", "E9", "E10", "E11", "E12", "E13",
		"E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24",
		"E25", "E27", "E28", "E29", "E30", "E31", "E32", "E33"}
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments %v, want %d", len(ids), ids, len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestCheapExperimentsProduceTables(t *testing.T) {
	// Run the fast experiments end to end and sanity-check the output
	// structure (the heavy ones run via cmd/sketchbench and benches).
	for _, id := range []string{"E1", "E3", "E5a", "E7a", "E11", "E12"} {
		res, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != id || res.Claim == "" || len(res.Tables) == 0 {
			t.Errorf("%s: malformed result %+v", id, res)
		}
		for _, tbl := range res.Tables {
			out := tbl.String()
			if !strings.Contains(out, "##") || len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s: table too small:\n%s", id, out)
			}
		}
	}
}

func TestRunAllExperimentsEndToEnd(t *testing.T) {
	// The full evaluation (~30s): every experiment must complete and
	// produce well-formed tables. Skipped under -short.
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	results := RunAll()
	if len(results) != len(IDs()) {
		t.Fatalf("RunAll returned %d results for %d ids", len(results), len(IDs()))
	}
	for _, res := range results {
		if res.Claim == "" || res.Title == "" {
			t.Errorf("%s: missing claim or title", res.ID)
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s: no tables", res.ID)
		}
		for _, tbl := range res.Tables {
			if len(strings.Split(strings.TrimSpace(tbl.String()), "\n")) < 4 {
				t.Errorf("%s: table %q has no data rows", res.ID, tbl.Title)
			}
		}
	}
}

func TestIDRank(t *testing.T) {
	n, s := idRank("E4b")
	if n != 4 || s != "b" {
		t.Errorf("idRank(E4b) = %d,%q", n, s)
	}
	n, s = idRank("E16")
	if n != 16 || s != "" {
		t.Errorf("idRank(E16) = %d,%q", n, s)
	}
}

func TestE29ScalingNoteNeedsFourWriters(t *testing.T) {
	// Below 4 writers neither scaling bar is measured, whatever the
	// ratios: the note must say so instead of printing "met".
	got := e29ScalingNote(2, 1.11, 1.02)
	want := "buffered Count-Min scaling 1→2 writers: 1.11x (acceptance ≥3x on ≥4 cores: not measured (2 writers)); atomic: 1.02x (expected <1.5x: not measured (2 writers))"
	if got != want {
		t.Fatalf("2-writer note:\n got %s\nwant %s", got, want)
	}
	if got := e29ScalingNote(4, 1.11, 1.6); !strings.Contains(got, "≥4 cores: NOT met") || !strings.Contains(got, "<1.5x: NOT met") {
		t.Fatalf("4-writer note with failing bars: %s", got)
	}
	if got := e29ScalingNote(8, 3.2, 1.1); strings.Count(got, ": met)") != 2 {
		t.Fatalf("8-writer note with passing bars: %s", got)
	}
}
