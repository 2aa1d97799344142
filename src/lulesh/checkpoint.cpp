// lulesh/checkpoint.cpp — standalone checkpoints as one-record chains.

#include "lulesh/checkpoint.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "lulesh/checkpoint_chain.hpp"

namespace lulesh {

void save_checkpoint(const domain& d, std::ostream& out) {
    const std::string record = pack_full_record(d);
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out) throw checkpoint_error("lulesh: checkpoint write failed");
}

void load_checkpoint(domain& d, std::istream& in) {
    restore_chain_stream(d, in, "stream");
}

void save_checkpoint_file(const domain& d, const std::string& path) {
    write_chain_file(path, {pack_full_record(d)});
}

void load_checkpoint_file(domain& d, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw checkpoint_error("lulesh: cannot open '" + path + "' for reading");
    restore_chain_stream(d, in, "file '" + path + "'");
}

}  // namespace lulesh
