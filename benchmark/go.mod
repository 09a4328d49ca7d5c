module relser/benchmark

go 1.22

require relser v0.0.0

replace relser => ../
