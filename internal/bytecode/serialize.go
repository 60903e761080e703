package bytecode

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"
)

// magic identifies serialized SIA byte-code streams and their format
// version: SIABC2 holds where clauses as scalar code (PardoInfo.Where).
const magic = "SIABC2\n"

// Write serializes the program to w in the SIA byte-code container
// format: a magic header followed by a gob-encoded Program.
func (p *Program) Write(w io.Writer) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("bytecode: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("bytecode: encode: %w", err)
	}
	return nil
}

// Read deserializes a program written by Write.
func Read(r io.Reader) (*Program, error) {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("bytecode: read header: %w", err)
	}
	if string(hdr) != magic {
		if strings.HasPrefix(string(hdr), "SIABC") {
			return nil, fmt.Errorf("bytecode: format %q, but this build reads only %q: recompile the source",
				strings.TrimSpace(string(hdr)), strings.TrimSpace(magic))
		}
		return nil, fmt.Errorf("bytecode: bad magic %q", hdr)
	}
	var p Program
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("bytecode: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("bytecode: invalid program: %w", err)
	}
	p.Lower()
	return &p, nil
}

// Marshal serializes the program to a byte slice.
func (p *Program) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes a program from a byte slice.
func Unmarshal(data []byte) (*Program, error) {
	return Read(bytes.NewReader(data))
}
