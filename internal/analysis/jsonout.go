package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSONFinding is the machine-readable form of one finding, emitted by
// cmd/ml4db-vet -json as a JSON array. The shape is a contract for CI
// annotators and future tooling; ValidateFindingsJSON is its schema check,
// run by tests and available to consumers.
type JSONFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	// Reason carries the //ml4db:allow justification for suppressed findings.
	Reason string `json:"reason,omitempty"`
}

// ToJSONFinding converts an analysis Finding.
func ToJSONFinding(f Finding) JSONFinding {
	return JSONFinding{
		File:       f.Pos.Filename,
		Line:       f.Pos.Line,
		Col:        f.Pos.Column,
		Analyzer:   f.Analyzer,
		Message:    f.Message,
		Suppressed: f.Suppressed,
		Reason:     f.Reason,
	}
}

// WriteFindingsJSON encodes findings as an indented JSON array ([] when
// empty, never null).
func WriteFindingsJSON(w io.Writer, findings []Finding) error {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, ToJSONFinding(f))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ValidateFindingsJSON checks that data is a well-formed -json document:
// a JSON array whose every element carries the required fields with sane
// values. It rejects unknown fields so schema drift fails loudly.
func ValidateFindingsJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("analysis: findings JSON is not an array: %w", err)
	}
	known := map[string]bool{
		"suppression": true, // malformed/unused-suppression findings
		"typecheck":   true, // loader type errors surfaced by the CLI
	}
	for _, a := range All() {
		known[a.Name] = true
	}
	for i, msg := range raw {
		var f JSONFinding
		dec := json.NewDecoder(bytes.NewReader(msg))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			return fmt.Errorf("analysis: finding %d: %w", i, err)
		}
		if f.File == "" {
			return fmt.Errorf("analysis: finding %d: empty file", i)
		}
		if f.Line <= 0 {
			return fmt.Errorf("analysis: finding %d: line %d out of range", i, f.Line)
		}
		if f.Col < 0 {
			return fmt.Errorf("analysis: finding %d: negative column", i)
		}
		if f.Analyzer == "" || !known[f.Analyzer] {
			return fmt.Errorf("analysis: finding %d: unknown analyzer %q", i, f.Analyzer)
		}
		if f.Message == "" {
			return fmt.Errorf("analysis: finding %d: empty message", i)
		}
		if f.Reason != "" && !f.Suppressed {
			return fmt.Errorf("analysis: finding %d: reason set on unsuppressed finding", i)
		}
	}
	return nil
}
