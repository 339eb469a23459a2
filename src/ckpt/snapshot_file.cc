#include "ckpt/snapshot_file.h"

#include <cstring>

#include "ckpt/journal.h"
#include "ckpt/serial.h"

namespace govdns::ckpt {

namespace {

constexpr char kMagic[4] = {'G', 'V', 'S', 'N'};

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

util::Status Corrupt(const std::string& path, const std::string& what) {
  return util::DataLossError("snapshot file " + path + ": " + what);
}

}  // namespace

void SnapshotFileWriter::AddSection(uint32_t id, std::string bytes) {
  for (const auto& [existing, _] : sections_) GOVDNS_CHECK(existing != id);
  sections_.emplace_back(id, std::move(bytes));
}

std::string SnapshotFileWriter::Assemble() const {
  const uint64_t table_size = sections_.size() * kSnapshotTableEntrySize;
  uint64_t offset = AlignUp(kSnapshotHeaderSize + table_size,
                            kSnapshotSectionAlign);

  Writer table;
  std::vector<uint64_t> offsets;
  offsets.reserve(sections_.size());
  for (const auto& [id, bytes] : sections_) {
    offsets.push_back(offset);
    table.U32(id);
    table.U32(0);
    table.U64(offset);
    table.U64(bytes.size());
    table.U32(Crc32(bytes));
    table.U32(0);
    offset = AlignUp(offset + bytes.size(), kSnapshotSectionAlign);
  }
  const std::string table_bytes = std::move(table).Take();
  GOVDNS_CHECK(table_bytes.size() == table_size);

  Writer header;
  header.Raw(std::string_view(kMagic, sizeof kMagic));
  header.U32(kSnapshotEndianMarker);
  header.U32(version_);
  header.U32(static_cast<uint32_t>(sections_.size()));
  header.U64(fingerprint_);
  header.U32(Crc32(table_bytes));
  std::string header_bytes = std::move(header).Take();
  // The header CRC covers everything before it.
  Writer crc;
  crc.U32(Crc32(header_bytes));
  header_bytes += std::move(crc).Take();
  GOVDNS_CHECK(header_bytes.size() == kSnapshotHeaderSize);

  std::string out;
  out.reserve(offset);
  out += header_bytes;
  out += table_bytes;
  for (size_t i = 0; i < sections_.size(); ++i) {
    out.resize(offsets[i], '\0');  // zero pad up to the aligned offset
    out += sections_[i].second;
  }
  return out;
}

util::Status SnapshotFileWriter::WriteTo(const std::string& dir,
                                         const std::string& path) const {
  return AtomicWriteFileDurable(dir, path, Assemble());
}

util::StatusOr<SnapshotFileView> SnapshotFileView::Open(
    const std::string& path, uint32_t expected_version,
    uint64_t expected_fingerprint, SnapshotValidation validation) {
  auto file = util::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  return FromFile(*std::move(file), path, expected_version,
                  expected_fingerprint, validation);
}

util::StatusOr<SnapshotFileView> SnapshotFileView::FromFile(
    util::MappedFile file, const std::string& origin, uint32_t expected_version,
    uint64_t expected_fingerprint, SnapshotValidation validation) {
  const std::string_view bytes = file.view();
  if (bytes.size() < kSnapshotHeaderSize) {
    return Corrupt(origin, "truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Corrupt(origin, "bad magic");
  }
  Reader r(bytes.substr(sizeof kMagic, kSnapshotHeaderSize - sizeof kMagic));
  uint32_t endian = 0, version = 0, section_count = 0;
  uint32_t table_crc = 0, header_crc = 0;
  uint64_t fingerprint = 0;
  GOVDNS_CHECK(r.U32(&endian) && r.U32(&version) && r.U32(&section_count) &&
               r.U64(&fingerprint) && r.U32(&table_crc) && r.U32(&header_crc));
  if (Crc32(bytes.substr(0, kSnapshotHeaderSize - 4)) != header_crc) {
    return Corrupt(origin, "header CRC mismatch");
  }
  if (endian != kSnapshotEndianMarker) {
    return Corrupt(origin, "endianness mismatch (file written on a "
                         "different-endian host)");
  }
  if (version != expected_version) {
    return Corrupt(origin, "format version " + std::to_string(version) +
                             " != expected " + std::to_string(expected_version));
  }
  if (fingerprint != expected_fingerprint) {
    return Corrupt(origin, "world/config fingerprint mismatch");
  }
  const uint64_t table_size =
      static_cast<uint64_t>(section_count) * kSnapshotTableEntrySize;
  if (kSnapshotHeaderSize + table_size > bytes.size()) {
    return Corrupt(origin, "truncated section table");
  }
  const std::string_view table = bytes.substr(kSnapshotHeaderSize, table_size);
  if (Crc32(table) != table_crc) {
    return Corrupt(origin, "section table CRC mismatch");
  }

  SnapshotFileView view;
  view.fingerprint_ = fingerprint;
  view.sections_.reserve(section_count);
  Reader tr(table);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionRef ref;
    uint32_t reserved0 = 0, payload_crc = 0, reserved1 = 0;
    GOVDNS_CHECK(tr.U32(&ref.id) && tr.U32(&reserved0) && tr.U64(&ref.offset) &&
                 tr.U64(&ref.length) && tr.U32(&payload_crc) &&
                 tr.U32(&reserved1));
    if (ref.offset % kSnapshotSectionAlign != 0) {
      return Corrupt(origin, "misaligned section " + std::to_string(ref.id));
    }
    if (ref.offset > bytes.size() || ref.length > bytes.size() - ref.offset) {
      return Corrupt(origin, "section " + std::to_string(ref.id) +
                               " out of bounds");
    }
    for (const SectionRef& prior : view.sections_) {
      if (prior.id == ref.id) {
        return Corrupt(origin, "duplicate section id " + std::to_string(ref.id));
      }
    }
    if (validation == SnapshotValidation::kFull &&
        Crc32(bytes.substr(ref.offset, ref.length)) != payload_crc) {
      return Corrupt(origin, "section " + std::to_string(ref.id) +
                               " payload CRC mismatch");
    }
    view.sections_.push_back(ref);
  }
  view.file_ = std::move(file);
  return view;
}

util::StatusOr<std::string_view> SnapshotFileView::Section(uint32_t id) const {
  for (const SectionRef& ref : sections_) {
    if (ref.id == id) {
      return file_.view().substr(ref.offset, ref.length);
    }
  }
  return util::NotFoundError("snapshot has no section " + std::to_string(id));
}

}  // namespace govdns::ckpt
