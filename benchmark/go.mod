module triplec/benchmark

go 1.22

require triplec v0.0.0

replace triplec => ../
