package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"biaslab/internal/server"
	"biaslab/internal/spec"
)

// Spec files are JSON with `//` line comments, because suppressions live
// in comments: a directive line
//
//	//audit:allow single-setup
//
// anywhere in the file suppresses that rule for every spec in the file —
// still reported, no longer gating — exactly like determlint's
// //determlint:allow. A file holds one JobSpec, an array of JobSpecs
// (audited together, so the cross-spec rules see the whole comparison), or
// a stored Result envelope (audited with the result-level rules too).

// allowPrefix introduces a suppression directive in a spec file.
const allowPrefix = "//audit:allow"

// LoadFile reads a spec file into audit inputs.
func LoadFile(path string) ([]Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFile(path, raw)
}

// ParseFile parses spec-file bytes: strips comments, collects
// //audit:allow directives, and detects the payload shape.
func ParseFile(path string, raw []byte) ([]Spec, error) {
	stripped, allow, err := stripComments(path, raw)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(stripped))
	if trimmed == "" {
		return nil, fmt.Errorf("audit: %s: empty spec file", path)
	}

	if strings.HasPrefix(trimmed, "[") {
		var specs []server.JobSpec
		if err := decodeStrict(trimmed, &specs); err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		ins := make([]Spec, len(specs))
		for i, s := range specs {
			ins[i] = Spec{File: fmt.Sprintf("%s[%d]", path, i), Spec: s, Allow: allow}
		}
		return ins, nil
	}

	// A declarative bias-on-demand file compiles into jobs; each compiled
	// job is audited as its own spec, so the whole comparison the file
	// describes is judged together (cross-spec rules included). The file's
	// audit_allow field is already stamped onto every compiled job by the
	// compiler; //audit:allow directives are honored here like anywhere
	// else.
	if spec.IsDeclarative([]byte(trimmed)) {
		f, err := spec.Parse([]byte(trimmed))
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		jobs, err := f.Compile()
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		ins := make([]Spec, len(jobs))
		for i, job := range jobs {
			ins[i] = Spec{File: fmt.Sprintf("%s[%d]", path, i), Spec: job, Allow: allow}
		}
		return ins, nil
	}

	// A Result envelope carries a payload alongside its spec; a bare spec
	// does not. Sniff for the discriminating payload keys.
	var probe struct {
		Run        json.RawMessage `json:"run"`
		EnvSweep   json.RawMessage `json:"env_sweep"`
		LinkSweep  json.RawMessage `json:"link_sweep"`
		Randomize  json.RawMessage `json:"randomize"`
		Experiment json.RawMessage `json:"experiment"`
	}
	if err := json.Unmarshal([]byte(trimmed), &probe); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	if probe.Run != nil || probe.EnvSweep != nil || probe.LinkSweep != nil ||
		probe.Randomize != nil || probe.Experiment != nil {
		res, err := server.DecodeResult([]byte(trimmed))
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		return []Spec{{File: path, Spec: res.Spec, Allow: allow, Result: res}}, nil
	}

	var spec server.JobSpec
	if err := decodeStrict(trimmed, &spec); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	return []Spec{{File: path, Spec: spec, Allow: allow}}, nil
}

// decodeStrict decodes exactly one JSON value into v and refuses fields v
// does not have: an audit that silently dropped a misspelled field would
// judge a spec other than the one the file describes. Stored results stay
// on the lenient server.DecodeResult, so older journals still load.
func decodeStrict(data string, v any) error {
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// stripComments removes `//` line comments (whole-line only, so string
// values containing slashes survive) and returns the allow directives it
// found.
func stripComments(path string, raw []byte) ([]byte, []string, error) {
	var out strings.Builder
	var allow []string
	for _, line := range strings.Split(string(raw), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, allowPrefix) {
			rule := strings.TrimSpace(strings.TrimPrefix(t, allowPrefix))
			if rule == "" {
				return nil, nil, fmt.Errorf("audit: %s: %s needs a rule id", path, allowPrefix)
			}
			if !KnownRule(rule) {
				return nil, nil, fmt.Errorf("audit: %s: %s %s: unknown rule (known: %s)",
					path, allowPrefix, rule, strings.Join(Rules(), ", "))
			}
			allow = append(allow, rule)
			continue
		}
		if strings.HasPrefix(t, "//") {
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return []byte(out.String()), allow, nil
}
