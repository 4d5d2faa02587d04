package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"pimdsm"
)

// The reference oracle: the simulated statistics of the 21 paper-scale
// matrix runs and a digest of the canonical result bytes of every
// configuration the service workloads request, all taken at the commit
// named in the file. Simulated numbers are the benchmark's fixed point: a
// run whose statistics or bytes differ counts as failed, so no host-time
// change can buy speed by simulating something else. The check is for
// identity with that commit, not for accuracy: the model is not validated
// against hardware.
//
//go:embed reference.json
var referenceJSON []byte

// simStats are the simulated statistics checked on every matrix run.
type simStats struct {
	Arch          string `json:"arch"`
	App           string `json:"app"`
	ExecCycles    uint64 `json:"exec_cycles"`
	MemoryCycles  uint64 `json:"memory_cycles"`
	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	Invalidations uint64 `json:"invalidations"`
	WriteBacks    uint64 `json:"write_backs"`
	MeshMessages  uint64 `json:"mesh_messages"`
	MeshHops      uint64 `json:"mesh_hops"`
}

func statsOf(r *pimdsm.Result) simStats {
	s := simStats{
		Arch:          string(r.Arch),
		App:           r.App,
		ExecCycles:    uint64(r.Breakdown.Exec),
		MemoryCycles:  uint64(r.Breakdown.Memory),
		Invalidations: r.Machine.Invalidations,
		WriteBacks:    r.Machine.WriteBacks,
		MeshMessages:  r.Mesh.Messages,
		MeshHops:      r.Mesh.HopsTotal,
	}
	for _, c := range r.Machine.ReadCount {
		s.Reads += c
	}
	for _, c := range r.Machine.WriteCount {
		s.Writes += c
	}
	return s
}

// resultDigest names one configuration's canonical result bytes.
type resultDigest struct {
	Key    string `json:"key"`
	Spec   string `json:"spec"`
	SHA256 string `json:"sha256"`
}

type reference struct {
	Commit  string         `json:"commit"`
	Matrix  []simStats     `json:"matrix"`
	Results []resultDigest `json:"results"`

	matrix  map[string]simStats
	digests map[string]string
}

func loadReference(data []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref.index()
	return &ref, nil
}

func (ref *reference) index() {
	ref.matrix = make(map[string]simStats, len(ref.Matrix))
	for _, s := range ref.Matrix {
		ref.matrix[s.Arch+"/"+s.App] = s
	}
	ref.digests = make(map[string]string, len(ref.Results))
	for _, d := range ref.Results {
		ref.digests[d.Key] = d.SHA256
	}
}

// checkRun compares one matrix run with the oracle.
func (ref *reference) checkRun(got simStats) error {
	want, ok := ref.matrix[got.Arch+"/"+got.App]
	if !ok {
		return fmt.Errorf("%s/%s: no reference entry", got.Arch, got.App)
	}
	if got != want {
		return fmt.Errorf("%s/%s: simulated stats %+v differ from reference %+v", got.Arch, got.App, got, want)
	}
	return nil
}

// checkBytes compares one configuration's result bytes with the oracle.
func (ref *reference) checkBytes(cs pimdsm.ConfigSpec, b []byte) error {
	want, ok := ref.digests[specKey(cs)]
	if !ok {
		return fmt.Errorf("%s: no reference digest", specLabel(cs))
	}
	if got := digest(b); got != want {
		return fmt.Errorf("%s: result digest %.12s differs from reference %.12s", specLabel(cs), got, want)
	}
	return nil
}

// specKey identifies a configuration's result: its cache key at seed 0.
// The seed enters the cache key but not the result, so every seed of one
// configuration shares this identity.
func specKey(cs pimdsm.ConfigSpec) string { return fmt.Sprintf("%016x", cs.Key(0)) }

func specLabel(cs pimdsm.ConfigSpec) string {
	return fmt.Sprintf("%s/%s s=%g t=%d p=%g r=%d", cs.Arch, cs.App, cs.Scale, cs.Threads, cs.Pressure, cs.DRatio)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// matrixConfigs is the paper-scale evaluation matrix: every application on
// every machine organization at scale 1.0, 32 threads, pressure 0.75,
// DRatio 1 — the cmd/benchjson set.
func matrixConfigs() []pimdsm.Config {
	var out []pimdsm.Config
	for _, app := range pimdsm.Apps() {
		for _, arch := range []pimdsm.Arch{pimdsm.NUMA, pimdsm.COMA, pimdsm.AGG} {
			out = append(out, pimdsm.Config{
				Arch: arch, App: pimdsm.App(app, 1.0),
				Threads: 32, Pressure: 0.75, DRatio: 1,
			})
		}
	}
	return out
}

// smallSpecs is every application on every machine at one reduced size, in
// service wire form.
func smallSpecs(scale float64, threads int) []pimdsm.ConfigSpec {
	var out []pimdsm.ConfigSpec
	for _, app := range pimdsm.Apps() {
		for _, arch := range []pimdsm.Arch{pimdsm.NUMA, pimdsm.COMA, pimdsm.AGG} {
			cs := pimdsm.ConfigSpec{Arch: string(arch), App: app, Scale: scale, Threads: threads, Pressure: 0.75}
			if arch == pimdsm.AGG {
				cs.DRatio = 1
			}
			out = append(out, cs)
		}
	}
	return out
}

// figure6Batches is the Figure 6 configuration set of every application at
// the service workloads' reduced size, one batch per application.
func figure6Batches() [][]pimdsm.ConfigSpec {
	var out [][]pimdsm.ConfigSpec
	for _, app := range pimdsm.Apps() {
		out = append(out, pimdsm.Figure6Specs(app, smallThreads, hitScale))
	}
	return out
}

// serviceSpecs lists every configuration the service workloads request.
func serviceSpecs() []pimdsm.ConfigSpec {
	all := smallSpecs(hitScale, smallThreads)
	for _, b := range figure6Batches() {
		all = append(all, b...)
	}
	all = append(all, smallSpecs(burstScale, smallThreads)...)
	seen := map[string]bool{}
	var out []pimdsm.ConfigSpec
	for _, cs := range all {
		if k := specKey(cs); !seen[k] {
			seen[k] = true
			out = append(out, cs)
		}
	}
	return out
}

// writeReference simulates everything directly (no service in the path)
// and writes the oracle.
func writeReference(w io.Writer, commit string) error {
	ref := reference{Commit: commit}
	for _, cfg := range matrixConfigs() {
		r, err := pimdsm.Run(cfg)
		if err != nil {
			return err
		}
		ref.Matrix = append(ref.Matrix, statsOf(r))
	}
	for _, cs := range serviceSpecs() {
		r, err := pimdsm.Run(cs.Config())
		if err != nil {
			return err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		ref.Results = append(ref.Results, resultDigest{Key: specKey(cs), Spec: specLabel(cs), SHA256: digest(b)})
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
