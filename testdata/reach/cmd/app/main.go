package main

import (
	"os"

	"fixture/internal/lib"
)

func main() {
	// A program sets FromProgram: an option, though the value is constant.
	_ = lib.Serve(os.Stdout, lib.Config{FromProgram: 3})
}
