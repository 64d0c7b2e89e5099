package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// Load parses a trajectory document, rejecting unknown fields so schema
// drift fails loudly.
func Load(r io.Reader) (Trajectory, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trajectory
	if err := dec.Decode(&t); err != nil {
		return Trajectory{}, fmt.Errorf("bench: %w", err)
	}
	return t, nil
}
