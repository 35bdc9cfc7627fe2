package lint

import (
	"encoding/json"
	"io"
)

// SARIF 2.1.0 output, the interchange format GitHub code scanning ingests
// for inline PR annotations. The structs below are the minimal valid subset:
// one run, one driver with the rule catalog, one result per diagnostic. The
// driver's semanticVersion carries SchemaVersion.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name            string      `json:"name"`
	InformationURI  string      `json:"informationUri"`
	SemanticVersion string      `json:"semanticVersion"`
	Rules           []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders res as a SARIF 2.1.0 log. The rule catalog always
// lists every registered rule (findings or not), so annotation consumers can
// resolve ruleIndex stably; file URIs are module-root-relative with
// SRCROOT as the base id, which GitHub resolves against the checkout.
func WriteSARIF(w io.Writer, res *Result) error {
	ruleIndex := make(map[string]int, len(registry)+1)
	rules := make([]sarifRule, 0, len(registry)+1)
	add := func(name, doc string) {
		ruleIndex[name] = len(rules)
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: doc}})
	}
	for _, r := range registry {
		add(r.Name, r.Doc)
	}
	// The suppression parser's own diagnostics carry the pseudo-rule
	// "ignore"; give them a catalog entry too so every result resolves.
	add("ignore", "malformed //schedlint:ignore suppression directive")

	results := make([]sarifResult, 0, len(res.Diags))
	for _, d := range res.Diags {
		idx, ok := ruleIndex[d.Rule]
		if !ok {
			idx = len(rules)
			ruleIndex[d.Rule] = idx
			rules = append(rules, sarifRule{ID: d.Rule, ShortDescription: sarifMessage{Text: d.Rule}})
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File, URIBaseID: "SRCROOT"},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:            "schedlint",
				InformationURI:  "https://github.com/bioschedsim/bioschedsim",
				SemanticVersion: SchemaVersion,
				Rules:           rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
