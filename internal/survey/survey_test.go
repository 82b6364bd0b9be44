package survey

import "testing"

func TestCorpusTagsAreConsistent(t *testing.T) {
	for _, p := range Corpus() {
		if p.Year < 2018 || p.Year > 2023 {
			t.Errorf("%s: year %d outside survey window", p.Key, p.Year)
		}
		if p.Title == "" || p.Venue == "" {
			t.Errorf("%s: missing title/venue", p.Key)
		}
		if (p.Area == AreaIndex || p.Area == AreaQueryOptimizer) && p.Paradigm == NotApplicable {
			t.Errorf("%s: component publication without paradigm tag", p.Key)
		}
	}
}

func TestFigure1TrendShape(t *testing.T) {
	points := Figure1()
	if len(points) < 5 {
		t.Fatalf("only %d years in trend", len(points))
	}
	byYear := map[int]TrendPoint{}
	totalRepl, totalEnh := 0, 0
	for _, tp := range points {
		byYear[tp.Year] = tp
		totalRepl += tp.Replacement
		totalEnh += tp.MLEnhanced
	}
	// The paper's headline observation: a noticeable shift from replacement
	// to ML-enhanced over the window.
	early := byYear[2018].Replacement + byYear[2019].Replacement + byYear[2020].Replacement
	earlyEnh := byYear[2018].MLEnhanced + byYear[2019].MLEnhanced + byYear[2020].MLEnhanced
	late := byYear[2021].Replacement + byYear[2022].Replacement + byYear[2023].Replacement
	lateEnh := byYear[2021].MLEnhanced + byYear[2022].MLEnhanced + byYear[2023].MLEnhanced
	if early <= earlyEnh {
		t.Errorf("2018-2020: replacement (%d) should dominate ML-enhanced (%d)", early, earlyEnh)
	}
	if lateEnh <= late {
		t.Errorf("2021-2023: ML-enhanced (%d) should dominate replacement (%d)", lateEnh, late)
	}
	if totalRepl == 0 || totalEnh == 0 {
		t.Error("degenerate trend")
	}
	// Years must be sorted.
	for i := 1; i < len(points); i++ {
		if points[i].Year <= points[i-1].Year {
			t.Error("trend years not sorted")
		}
	}
}

func TestFigure1CountsOnlyMajorVenueComponents(t *testing.T) {
	total := 0
	for _, tp := range Figure1() {
		total += tp.Replacement + tp.MLEnhanced
	}
	manual := 0
	for _, p := range Corpus() {
		if p.MajorVenue && (p.Area == AreaIndex || p.Area == AreaQueryOptimizer) {
			manual++
		}
	}
	if total != manual {
		t.Errorf("figure counts %d, corpus says %d", total, manual)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("Table 1 has %d rows, paper has 10", len(rows))
	}
	want := map[string]string{
		"AVGDL":       "LSTM",
		"AIMeetsAI":   "Feature Vector",
		"ReJOIN":      "Feature Vector",
		"BAO":         "TreeCNN",
		"NEO":         "TreeCNN",
		"Prestroid":   "TreeCNN",
		"E2E-Cost":    "TreeLSTM",
		"RTOS":        "TreeLSTM",
		"Plan-Cost":   "TreeRNN",
		"QueryFormer": "Transformer",
	}
	for _, r := range rows {
		if want[r.Method] != r.TreeModel {
			t.Errorf("%s: tree model %q, paper says %q", r.Method, r.TreeModel, want[r.Method])
		}
		if r.Implementation == "" {
			t.Errorf("%s: no implementation pointer", r.Method)
		}
	}
}
