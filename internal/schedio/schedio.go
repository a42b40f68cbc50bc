// Package schedio serializes completed test schedules to and from JSON so
// downstream tools (ATE program generators, floorplanners, dashboards) can
// consume the framework's output without linking Go. The format is stable,
// versioned, and round-trips losslessly; Load re-validates the schedule
// against its SOC before handing it back.
package schedio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/sched"
	"repro/internal/soc"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// File is the serialized form of a schedule.
type File struct {
	Version  int    `json:"version"`
	SOC      string `json:"soc"`
	TAMWidth int    `json:"tamWidth"`
	// Params echoes the scheduling parameters that produced the schedule.
	Params ParamsJSON `json:"params"`
	// Makespan is the SOC testing time in cycles.
	Makespan int64 `json:"makespan"`
	// DataVolume is TAMWidth × Makespan bits.
	DataVolume int64 `json:"dataVolume"`
	// Cores holds per-core assignments sorted by core ID.
	Cores []CoreJSON `json:"cores"`
}

// ParamsJSON mirrors sched.Params (stable field names). Backend records
// which scheduling backend produced the schedule; it is omitted for the
// default classic backend, so pre-backend files and goldens are unchanged.
type ParamsJSON struct {
	Percent     int    `json:"percent"`
	Delta       int    `json:"delta"`
	PowerMax    int    `json:"powerMax,omitempty"`
	InsertSlack int    `json:"insertSlack"`
	MaxWidth    int    `json:"maxWidth"`
	Backend     string `json:"backend,omitempty"`
	// Seed records the randomized-backend seed (anneal); omitted when
	// zero, so deterministic-backend files and goldens are unchanged.
	Seed int64 `json:"seed,omitempty"`
	// MaxPreemptions (the positive budgets, sched.Params.Budgets) and
	// IgnoreHierarchy complete the regime the schedule ran under, so Load
	// re-verifies its splits and exclusions against it. Each is omitted
	// when unset; a file that splits a core without a budget for it fails
	// Load.
	MaxPreemptions  map[int]int `json:"maxPreemptions,omitempty"`
	IgnoreHierarchy bool        `json:"ignoreHierarchy,omitempty"`
}

// CoreJSON is one core's assignment.
type CoreJSON struct {
	CoreID        int         `json:"coreId"`
	Width         int         `json:"width"`
	BaseTime      int64       `json:"baseTime"`
	Preemptions   int         `json:"preemptions"`
	PenaltyCycles int64       `json:"penaltyCycles,omitempty"`
	ScanIn        int         `json:"scanIn"`
	ScanOut       int         `json:"scanOut"`
	Pieces        []PieceJSON `json:"pieces"`
}

// PieceJSON is one scheduled fragment with its concrete TAM wires.
type PieceJSON struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Wires []int `json:"wires"`
}

// Save writes the schedule as indented JSON.
func Save(w io.Writer, sch *sched.Schedule) error {
	f := File{
		Version:  FormatVersion,
		SOC:      sch.SOC,
		TAMWidth: sch.TAMWidth,
		Params: ParamsJSON{
			Percent:         sch.Params.Percent,
			Delta:           sch.Params.Delta,
			PowerMax:        sch.Params.PowerMax,
			InsertSlack:     sch.Params.InsertSlack,
			MaxWidth:        sch.Params.MaxWidth,
			Backend:         sch.Params.Backend,
			Seed:            sch.Params.Seed,
			MaxPreemptions:  sch.Params.Budgets(),
			IgnoreHierarchy: sch.Params.IgnoreHierarchy,
		},
		Makespan:   sch.Makespan,
		DataVolume: sch.DataVolume(),
	}
	var ids []int
	for id := range sch.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := sch.Assignments[id]
		cj := CoreJSON{
			CoreID:        a.CoreID,
			Width:         a.Width,
			BaseTime:      a.BaseTime,
			Preemptions:   a.Preemptions,
			PenaltyCycles: a.PenaltyCycles,
			ScanIn:        a.ScanIn,
			ScanOut:       a.ScanOut,
		}
		for _, p := range a.Pieces {
			cj.Pieces = append(cj.Pieces, PieceJSON{Start: p.Start, End: p.End, Wires: append([]int(nil), p.Wires...)})
		}
		f.Cores = append(f.Cores, cj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// SaveFile writes the schedule to the named file.
func SaveFile(path string, sch *sched.Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, sch); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a schedule and reconstructs it against the SOC it was
// produced for. The pieces are taken straight from the file, each wire
// list sorted, and the schedule is re-verified (wires, timing model, and
// the constraints of the regime its params record) before being returned,
// so a tampered or stale file is rejected rather than silently trusted.
// Load allocates in proportion to the document, never to the TAM width it
// claims.
func Load(r io.Reader, s *soc.SOC) (*sched.Schedule, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("schedio: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("schedio: unsupported format version %d (want %d)", f.Version, FormatVersion)
	}
	if f.SOC != s.Name {
		return nil, fmt.Errorf("schedio: schedule is for SOC %q, loaded against %q", f.SOC, s.Name)
	}
	sch := &sched.Schedule{
		SOC:      f.SOC,
		TAMWidth: f.TAMWidth,
		Params: sched.Params{
			TAMWidth:        f.TAMWidth,
			Percent:         f.Params.Percent,
			Delta:           f.Params.Delta,
			PowerMax:        f.Params.PowerMax,
			InsertSlack:     f.Params.InsertSlack,
			MaxWidth:        f.Params.MaxWidth,
			Backend:         f.Params.Backend,
			Seed:            f.Params.Seed,
			MaxPreemptions:  f.Params.MaxPreemptions,
			IgnoreHierarchy: f.Params.IgnoreHierarchy,
		},
		Assignments: make(map[int]*sched.Assignment, len(f.Cores)),
		Makespan:    f.Makespan,
	}
	for _, cj := range f.Cores {
		if _, dup := sch.Assignments[cj.CoreID]; dup {
			return nil, fmt.Errorf("schedio: core %d listed twice", cj.CoreID)
		}
		a := &sched.Assignment{
			CoreID:        cj.CoreID,
			Width:         cj.Width,
			BaseTime:      cj.BaseTime,
			Preemptions:   cj.Preemptions,
			PenaltyCycles: cj.PenaltyCycles,
			ScanIn:        cj.ScanIn,
			ScanOut:       cj.ScanOut,
		}
		for _, pj := range cj.Pieces {
			// Wire lists are canonical in ascending order, as Assemble
			// emits them; conflicts are Verify's to report.
			sort.Ints(pj.Wires)
			a.Pieces = append(a.Pieces, sched.Piece{CoreID: cj.CoreID, Start: pj.Start, End: pj.End, Wires: pj.Wires})
		}
		sch.Assignments[cj.CoreID] = a
	}
	if err := sched.Verify(s, sch); err != nil {
		return nil, fmt.Errorf("schedio: loaded schedule fails verification: %w", err)
	}
	return sch, nil
}
