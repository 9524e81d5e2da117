module hpcqc/benchmark

go 1.22

require hpcqc v0.0.0

replace hpcqc => ../
