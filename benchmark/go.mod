module streamhist/benchmark

go 1.22

require streamhist v0.0.0

replace streamhist => ../
