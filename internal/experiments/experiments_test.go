package experiments

import (
	"fmt"
	"strings"
	"testing"

	"csi/internal/session"
)

func TestProp1Bounds(t *testing.T) {
	sc := Quick
	sc.Reps = 1
	tab, err := Prop1(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, note := range tab.Notes {
		if strings.Contains(note, "WARNING") {
			t.Errorf("Property 1 lower bound violated: %s", note)
		}
	}
	// HTTPS max error must stay within ~1%, QUIC within ~5%.
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	checkMax := func(row []string, lim float64, label string) {
		var v float64
		if _, err := parseFloat(row[5], &v); err != nil {
			t.Fatalf("%s: bad max %q", label, row[5])
		}
		if v > lim {
			t.Errorf("%s max error %.3f%% exceeds %.1f%%", label, v, lim)
		}
	}
	checkMax(tab.Rows[0], 1.0, "HTTPS")
	checkMax(tab.Rows[1], 5.0, "QUIC")
}

func parseFloat(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

func TestFig4Shape(t *testing.T) {
	tab, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 72 {
		t.Fatalf("fig4 rows = %d, want 72 chunks", len(tab.Rows))
	}
	if len(tab.Header) != 7 {
		t.Fatalf("fig4 cols = %d, want index + 6 tracks", len(tab.Header))
	}
}

func TestFig5Monotonicity(t *testing.T) {
	sc := Quick
	tab, err := Fig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every row: unique fraction non-decreasing in L (tolerance for
	// sampling noise).
	for _, row := range tab.Rows {
		prev := -1.0
		for _, cell := range row[2:] {
			var v float64
			if _, err := fmt.Sscan(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < prev-3 {
				t.Errorf("uniqueness not monotone in row %v", row)
			}
			prev = v
		}
	}
}

func TestTable3Runs(t *testing.T) {
	sc := Quick
	sc.Videos = 3
	sc.Samples = 600
	tab, err := Table3(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 6 {
		t.Fatalf("services = %d, want 6", len(tab.Rows))
	}
}

// TestTable4Quick puts accuracy floors on the Table 4 sweep at the Quick
// scale: the values csi-paper -scale quick prints, so a change to the
// session grid cannot lower accuracy unnoticed.
func TestTable4Quick(t *testing.T) {
	const runs = "12" // 4 videos x 3 traces x 1 rep
	for _, c := range []struct {
		design session.Design
		all    float64            // minimum of every column, in %
		floors map[string]float64 // per-column minimum overriding all
	}{
		{session.CH, 100, nil},
		{session.SH, 100, nil},
		{session.CQ, 0, map[string]float64{"best:100%": 91.7, "best:5pct": 55.0}},
	} {
		t.Run(c.design.String(), func(t *testing.T) {
			tab, err := Table4(Quick, c.design)
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + tab.String())
			row := tab.Rows[0]
			if row[1] != runs {
				t.Fatalf("runs = %s, want %s", row[1], runs)
			}
			for col := 2; col < len(row); col++ {
				name := tab.Header[col]
				floor := c.all
				if f, ok := c.floors[name]; ok {
					floor = f
				}
				var v float64
				if _, err := fmt.Sscan(row[col], &v); err != nil {
					t.Fatal(err)
				}
				if v < floor {
					t.Errorf("%v %s = %.1f%%, want >= %.1f%%", c.design, name, v, floor)
				}
			}
		})
	}
}

func TestHuluBasics(t *testing.T) {
	sc := Quick
	sc.SessionSec = 240
	tab, err := HuluBasics(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, row := range tab.Rows {
		if row[3] == "false" {
			t.Errorf("converged track above half bandwidth: %v", row)
		}
	}
}
